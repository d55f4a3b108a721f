"""Uniform sampled complex functions on a chi or k axis.

Every state is one `SampledFunction`, tagged with its direction s and
polarization; the physical constants are a separate `FieldConstants`.
Provides the norm and L2 distance, CSV serialization, and the one
band-limited evaluator `trig_interpolate` (one FFT and a chirp-z, every
phase reduced exactly by `_turns`).  Resampling under coordinate rescaling
(the discrete realization of substitutions like chi' -> scale*chi'),
point evaluation of a chi function, and `boost_field`, which boosts
packets and blip states, all read samples through it.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .kinematics import BoostParams, kappa, xi

__all__ = [
    "Representation",
    "Axis",
    "SampledFunction",
    "frozen",
    "FieldConstants",
    "evaluate_at",
    "norm",
    "l2_distance",
    "resample",
    "boost_field",
    "trig_interpolate",
    "write_table",
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
        if not self.step > 0:
            raise ValueError(f"axis step must be positive, got {self.step!r}")
        if self.count < 2:
            raise ValueError(f"axis needs at least 2 points, got {self.count}")
        if self.count % 2 != 0:
            raise ValueError(f"axis count must be even, got {self.count}")
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise ValueError(f"axis points must be finite, got start {self.start!r}, "
                             f"end {self.end!r}")

    @property
    def span(self) -> float:
        return self.count * self.step

    @property
    def end(self) -> float:
        return self.start + (self.count - 1) * self.step

    def points(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count)

    def matches(self, other: "Axis") -> bool:
        """Whether `other` is this axis up to rounding: the same count, and
        both end points within 8 eps of this axis's largest |coordinate|.
        """
        tol = 8.0 * math.ulp(1.0) * max(abs(self.start), abs(self.end))
        return (other.count == self.count and abs(other.start - self.start) <= tol
                and abs(other.end - self.end) <= tol)

    def conjugate(self) -> "Axis":
        """The symmetric k axis dual to this chi axis (and vice versa)."""
        dk = 2.0 * np.pi / self.span
        return Axis(start=-(self.count // 2) * dk, step=dk, count=self.count)


def frozen(values: np.ndarray) -> np.ndarray:
    """`values` itself, made read-only: a fresh array handed over to a
    SampledFunction, which then keeps it without a copy.
    """
    values.flags.writeable = False
    return values


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Complex samples on an axis, tagged with representation, s and pol.

    `leakage` records the worst band-limit diagnostic accumulated by the
    resampling operations that produced this function (0 when clean).

    `values` is always read-only.  A complex, read-only array that owns its
    data is kept as handed over (producers pass `frozen(fresh_array)`);
    anything else (a writable array, a view, another dtype) is copied first.
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
        vals = self.values
        if not (isinstance(vals, np.ndarray) and vals.dtype == complex
                and not vals.flags.writeable and vals.base is None):
            vals = frozen(np.array(vals, dtype=complex))
        if vals.shape != (self.axis.count,):
            raise ValueError(
                f"values shape {vals.shape} does not match axis count {self.axis.count}"
            )
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
        if not all(0 < v < math.inf for v in (self.c, self.hbar, self.epsilon, self.area)):
            raise ValueError(f"physical constants must be finite and positive, got {self}")


def _check_compatible(f: SampledFunction, g: SampledFunction) -> None:
    if f.axis != g.axis:
        raise ValueError("mismatched axes")
    if f.representation != g.representation or f.s != g.s or f.pol != g.pol:
        raise ValueError("mismatched representation/direction/polarization tags")


def norm(f: SampledFunction) -> float:
    """sqrt(step * sum|f|^2)."""
    return float(np.sqrt(f.axis.step) * np.linalg.norm(f.values))


def l2_distance(f: SampledFunction, g: SampledFunction) -> float:
    """sqrt(step * sum|f - g|^2)."""
    _check_compatible(f, g)
    return float(np.sqrt(f.axis.step) * np.linalg.norm(f.values - g.values))


def _turns(r: float, q: np.ndarray) -> np.ndarray:
    """r*q mod 1, in [-1/2, 1/2], for a float r and integers |q| < 2**40,
    to an eps or two however large r*q is (exact phase reduction: Bailey &
    Swarztrauber, SIAM Rev. 1991).

    r's significand is split into 13-bit chunks, so that each chunk times q
    is exact and loses nothing when reduced mod 1.
    """
    significand, exponent = math.frexp(r)
    bits = int(abs(significand) * 2.0 ** 53)  # |r| = bits * 2**(exponent - 53)
    q = np.asarray(q, dtype=float)
    out = np.zeros(q.shape)
    part = np.empty(q.shape)
    for shift in range(0, 53, 13):
        chunk = math.ldexp((bits >> shift) & 0x1FFF, exponent - 53 + shift)
        np.multiply(q, math.copysign(chunk, r), out=part)
        part -= np.rint(part)  # nearest, not floor: a tiny part stays exact
        out += part
    out -= np.rint(out)
    return out


def _cis(turns: np.ndarray) -> np.ndarray:
    """exp(2*pi*i*turns)."""
    return np.exp(2j * np.pi * turns)


def trig_interpolate(f: SampledFunction, query: Axis) -> tuple[np.ndarray, float]:
    """The trigonometric (band-limited) interpolant of f on the uniform
    `query` axis, and the fraction of f's spectral energy above the query
    axis's Nyquist wavenumber pi/query.step (the part it cannot represent).

    Queries that are f's samples up to rounding (`f.axis.matches(query)`)
    return f's read-only samples themselves, not a copy, and no leakage.
    Others take one FFT of f and a Bluestein chirp-z transform (three
    FFTs), O(N log N) regardless of the query spacing, and read 0 outside
    f's sampled span, where the interpolant repeats f periodically.  Every
    phase is reduced exactly by `_turns`, which bounds an off-sample query
    to n + m <= 2**21 points.
    """
    if f.axis.matches(query):
        return f.values, 0.0
    lo, hi = f.axis.start, f.axis.end
    n, m = f.axis.count, query.count
    if n + m > 2**21:  # keeps every square below in _turns's exact range
        raise ValueError(f"an off-sample query needs n + m <= 2**21 points, "
                         f"got {n} + {m}")
    u = 2.0 * np.pi / f.axis.span
    coeff = np.fft.fftshift(np.fft.fft(f.values))
    freqs = np.arange(-(n // 2), n // 2)
    power = np.abs(coeff) ** 2
    total = power.sum()
    lost = power[u * np.abs(freqs) > np.pi / query.step].sum()
    # At the centred query point j, -m/2 <= j < m/2, coefficient q turns
    # by q*a + r*q*j, and q*j = (q**2 + j**2 - (j - q)**2)/2 (Bluestein 1970)
    # makes the sum over q a convolution with the chirp at j - q.
    r = query.step / f.axis.span
    a = (query.start - lo + (m // 2) * query.step) / f.axis.span
    k = np.arange(1 - (n + m) // 2, (n + m) // 2)  # every q, j and j - q
    chirp = _cis(_turns(r / 2, k * k))
    coeff *= _cis(_turns(a, freqs)) * chirp[m // 2 - 1:m // 2 - 1 + n]
    size = 1 << (n + m - 2).bit_length()
    out = np.fft.ifft(np.fft.fft(coeff, size) * np.fft.fft(chirp.conj(), size))
    out = out[n - 1:n - 1 + m] * chirp[n // 2 - 1:n // 2 - 1 + m]
    x = query.points()
    out[(x < lo) | (x > hi)] = 0.0
    return out / n, float(lost / total) if total > 0 else 0.0


def evaluate_at(f: SampledFunction, x: float, t: float,
                constants: FieldConstants = FieldConstants()) -> complex:
    """Amplitude at (x, t) of a chi function: the interpolant at
    chi = x - s*c*t with f's direction s (exact relabeling).
    """
    if f.representation is not Representation.POSITION_CHI:
        raise ValueError("evaluate_at requires a position-chi function")
    chi = x - f.s * constants.c * t
    if not (f.axis.start <= chi <= f.axis.end):
        raise ValueError(f"chi = {chi} outside the sampled grid")
    return complex(trig_interpolate(f, Axis(start=chi, step=f.axis.step, count=2))[0][0])


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
    return SampledFunction(
        axis=target,
        values=frozen(amplitude_factor * out),
        representation=f.representation,
        s=f.s,
        pol=f.pol,
        leakage=max(f.leakage, leak if leak > LEAKAGE_THRESHOLD else 0.0),
    )


def boost_field(f: SampledFunction, boost: BoostParams, target: Axis,
                power: float) -> SampledFunction:
    """f seen from the boosted frame, sampled on `target`.

    A sample at chi_A is the sample at kappa*chi_A in the boosted frame,
    rescaled: g(x) = scale**power * f(scale * x), with scale xi = 1/kappa
    in the chi representation and kappa in the k representation.  `power`
    is 1 for an E amplitude or a field matrix element, and 1/2 for a
    one-photon amplitude, whose squared norm (the photon number) it keeps.
    """
    factor = xi if f.representation is Representation.POSITION_CHI else kappa
    scale = factor(f.s, boost)
    return resample(f, scale=scale, amplitude_factor=scale ** power, target=target)


def write_table(path, header: str, columns) -> None:
    """Write a header line, then one `%.17g`-formatted CSV row per index of
    the equal-length float `columns`, every line ending in CRLF: the bytes
    of np.savetxt(..., fmt="%.17g", delimiter=",", newline="\r\n").

    Rows are formatted a block at a time by one string operation, and never
    all at once, so memory does not grow with the file.
    """
    rows_per_block = 4096
    row = ",".join(["%.17g"] * len(columns)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        for lo in range(0, len(columns[0]), rows_per_block):
            block = np.column_stack([c[lo:lo + rows_per_block] for c in columns])
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def write_csv(f: SampledFunction, path) -> None:
    """Write `coordinate,re,im` rows, coordinates ascending, 17 sig digits."""
    write_table(path, "coordinate,re,im", [f.axis.points(), f.values.real, f.values.imag])


def read_csv(path, representation: Representation, s: int,
             pol: str = "H") -> SampledFunction:
    """Read a SampledFunction from `coordinate,re,im` rows, such as
    `write_csv` writes (any float format, LF or CRLF line endings).

    The coordinate column must form a uniform ascending grid of even length.
    Its step is inferred from the whole span, (last - first)/(count - 1), so
    that the end point is kept to rounding however many rows there are.
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
    step = (coords[-1] - coords[0]) / (len(coords) - 1)
    if step <= 0 or not np.allclose(steps, step, rtol=1e-9, atol=0.0):
        raise ValueError(f"{path}: coordinates must be uniform and ascending")
    axis = Axis(start=float(coords[0]), step=float(step), count=len(coords))
    # Assigned part by part, not re + 1j*im, so that every bit (the sign
    # of -0.0 too) survives.
    values = np.empty(len(data), dtype=complex)
    values.real, values.imag = data[:, 1], data[:, 2]
    return SampledFunction(axis=axis, values=frozen(values),
                           representation=representation, s=s, pol=pol)
