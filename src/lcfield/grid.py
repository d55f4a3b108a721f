"""Uniform sampled complex functions on a chi or k axis, and fields of them.

Provides the midpoint-rule inner product, L2 distance, band-limited
resampling under coordinate rescaling (the discrete realization of
substitutions like chi' -> scale*chi'), CSV serialization, and the
`Field` container that holds one sampled function per (s, pol) channel
for both classical packets and one-photon blip states.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.signal import czt

__all__ = [
    "Representation",
    "Axis",
    "SampledFunction",
    "FieldConstants",
    "Field",
    "evaluate_at",
    "inner_product",
    "norm",
    "l2_distance",
    "resample",
    "trig_interpolate",
    "write_csv",
    "read_csv",
    "LEAKAGE_THRESHOLD",
]

# Fraction of spectral energy above the target band that trips the
# band-limit diagnostic; surfaced in reports, never raised.
LEAKAGE_THRESHOLD = 1e-6


class Representation(enum.Enum):
    POSITION_CHI = "position_chi"
    MOMENTUM_K = "momentum_k"


@dataclass(frozen=True)
class Axis:
    """Uniform grid: point(i) = start + i*step for 0 <= i < count."""

    start: float
    step: float
    count: int

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError(f"axis step must be positive, got {self.step!r}")
        if self.count < 2:
            raise ValueError(f"axis needs at least 2 points, got {self.count}")
        if self.count % 2 != 0:
            raise ValueError(f"axis count must be even, got {self.count}")

    @property
    def span(self) -> float:
        return self.count * self.step

    def points(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count)

    def conjugate(self) -> "Axis":
        """The symmetric k axis dual to this chi axis (and vice versa)."""
        dk = 2.0 * np.pi / self.span
        return Axis(start=-(self.count // 2) * dk, step=dk, count=self.count)


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Complex samples on an axis, tagged with representation, s and pol.

    `leakage` records the worst band-limit diagnostic accumulated by the
    resampling operations that produced this function (0 when clean).
    """

    axis: Axis
    values: np.ndarray
    representation: Representation
    s: int
    pol: str = "H"
    leakage: float = 0.0

    def __post_init__(self):
        if self.s not in (+1, -1):
            raise ValueError(f"direction flag must be +1 or -1, got {self.s!r}")
        if self.pol not in ("H", "V"):
            raise ValueError(f"polarization must be 'H' or 'V', got {self.pol!r}")
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.axis.count,):
            raise ValueError(
                f"values shape {vals.shape} does not match axis count {self.axis.count}"
            )
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def with_values(self, values: np.ndarray, **changes) -> "SampledFunction":
        return replace(self, values=values, **changes)


@dataclass(frozen=True)
class FieldConstants:
    """Physical constants; the model leaves units open, so all default to 1."""

    c: float = 1.0
    hbar: float = 1.0
    epsilon: float = 1.0
    area: float = 1.0

    def __post_init__(self):
        if min(self.c, self.hbar, self.epsilon, self.area) <= 0:
            raise ValueError("physical constants must be positive")


@dataclass(frozen=True, eq=False)
class Field:
    """One sampled function per (s, pol) channel, all in one representation.

    A classical packet holds its E amplitude in (s, "H") channels; a blip
    state holds one-photon amplitudes in either representation.
    """

    channels: dict  # (s, pol) -> SampledFunction
    constants: FieldConstants = FieldConstants()

    def __post_init__(self):
        for (s, pol), f in self.channels.items():
            if (f.s, f.pol) != (s, pol):
                raise ValueError(f"channel key {(s, pol)} does not match tags")
        if len({f.representation for f in self.channels.values()}) > 1:
            raise ValueError("field channels mix representations")

    def channel(self, s: int, pol: str = "H") -> SampledFunction:
        return self.channels[(s, pol)]

    def map(self, fn) -> "Field":
        """The field with `fn` applied to every channel."""
        return Field(channels={key: fn(f) for key, f in self.channels.items()},
                     constants=self.constants)


def _check_compatible(f: SampledFunction, g: SampledFunction) -> None:
    if f.axis != g.axis:
        raise ValueError("mismatched axes")
    if f.representation != g.representation or f.s != g.s or f.pol != g.pol:
        raise ValueError("mismatched representation/direction/polarization tags")


def inner_product(f: SampledFunction, g: SampledFunction) -> complex:
    """Midpoint-rule inner product step * sum(conj(f) * g)."""
    _check_compatible(f, g)
    return complex(f.axis.step * np.vdot(f.values, g.values))


def norm(f: SampledFunction) -> float:
    """sqrt(step * sum|f|^2)."""
    return float(np.sqrt(f.axis.step) * np.linalg.norm(f.values))


def l2_distance(f: SampledFunction, g: SampledFunction) -> float:
    """sqrt(step * sum|f - g|^2)."""
    _check_compatible(f, g)
    return float(np.sqrt(f.axis.step) * np.linalg.norm(f.values - g.values))


def trig_interpolate(f: SampledFunction, query: Axis) -> tuple[np.ndarray, float]:
    """The trigonometric (band-limited) interpolant of f on the uniform
    `query` axis, and the fraction of f's spectral energy above the query
    axis's Nyquist wavenumber pi/query.step (the part it cannot represent).

    One FFT of f and a chirp-z transform, O(N log N) regardless of the
    query spacing.  The interpolant is periodic with the source span;
    queries are expected to stay where the function has decayed.
    """
    if query == f.axis:
        return f.values.copy(), 0.0  # queries coincide with the samples
    n = f.axis.count
    u = 2.0 * np.pi / f.axis.span
    coeff = np.fft.fftshift(np.fft.fft(f.values))
    freqs = np.arange(-(n // 2), n // 2)
    power = np.abs(coeff) ** 2
    total = power.sum()
    lost = power[u * np.abs(freqs) > np.pi / query.step].sum()
    d = coeff * np.exp(1j * u * freqs * (query.start - f.axis.start))
    out = czt(d, query.count, w=np.exp(1j * u * query.step), a=1.0)
    out *= np.exp(-1j * u * (n // 2) * np.arange(query.count) * query.step)
    return out / n, float(lost / total) if total > 0 else 0.0


def evaluate_at(field: Field, x: float, t: float, s: int, pol: str = "H") -> complex:
    """Channel amplitude at (x, t): exact relabeling f(x - s*c*t)."""
    f = field.channel(s, pol)
    chi = x - s * field.constants.c * t
    lo, hi = f.axis.points()[[0, -1]]
    if chi < lo or chi > hi:
        raise ValueError(f"chi = {chi} outside the sampled grid")
    # An axis has at least two points; only the first, at chi, is wanted.
    out, _ = trig_interpolate(f, Axis(start=chi, step=f.axis.step, count=2))
    return complex(out[0])


def resample(
    f: SampledFunction,
    scale: float,
    amplitude_factor: float,
    target: Axis,
) -> SampledFunction:
    """Return g on `target` with g(x) = amplitude_factor * f(x * scale).

    Uses trigonometric (band-limited) interpolation.  g carries a source
    wavenumber k at k*scale, so the leakage diagnostic is the source energy
    above the Nyquist wavenumber of the query axis target*scale; it is
    attached to the result when it exceeds LEAKAGE_THRESHOLD.
    """
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale!r}")
    query = Axis(start=target.start * scale, step=target.step * scale,
                 count=target.count)
    out, leak = trig_interpolate(f, query)
    # Queries outside the sampled span see the interpolant's periodic
    # image; a properly decayed function is zero there instead.
    x = target.points() * scale
    lo, hi = f.axis.points()[[0, -1]]
    out[(x < lo) | (x > hi)] = 0.0
    return SampledFunction(
        axis=target,
        values=amplitude_factor * out,
        representation=f.representation,
        s=f.s,
        pol=f.pol,
        leakage=max(f.leakage, leak if leak > LEAKAGE_THRESHOLD else 0.0),
    )


def write_csv(f: SampledFunction, path) -> None:
    """Write `coordinate,re,im` rows, coordinates ascending, 17 sig digits."""
    np.savetxt(path, np.column_stack([f.axis.points(), f.values.real, f.values.imag]),
               fmt="%.17g", delimiter=",", header="coordinate,re,im",
               comments="", newline="\r\n")


def read_csv(path, representation: Representation, s: int,
             pol: str = "H") -> SampledFunction:
    """Read a SampledFunction written by `write_csv`.

    The coordinate column must form a uniform ascending grid of even length.
    """
    with open(path) as fh:
        header = fh.readline()
    if [h.strip() for h in header.split(",")] != ["coordinate", "re", "im"]:
        raise ValueError(f"{path}: expected header 'coordinate,re,im'")
    # loadtxt reads fastest from the path; the checks below catch files
    # whose rows all have the same wrong width, and files with no rows.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.size and data.shape[1] != 3:
        raise ValueError(f"{path}: rows must have 3 columns, got {data.shape[1]}")
    if len(data) < 2:
        raise ValueError(f"{path}: need at least 2 samples")
    coords = data[:, 0]
    steps = np.diff(coords)
    step = steps[0]
    if step <= 0 or not np.allclose(steps, step, rtol=1e-9, atol=0.0):
        raise ValueError(f"{path}: coordinates must be uniform and ascending")
    axis = Axis(start=float(coords[0]), step=float(step), count=len(coords))
    # A view, not re + 1j*im, so that every bit (the sign of -0.0 too) survives.
    values = data[:, 1:].copy().view(complex)[:, 0]
    return SampledFunction(axis=axis, values=values,
                           representation=representation, s=s, pol=pol)
