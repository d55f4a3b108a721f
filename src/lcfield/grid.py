"""Uniform sampled complex functions on a chi or k axis.

Every state is one `SampledFunction`, tagged with its direction s and
polarization; the physical constants are a separate `FieldConstants`.
Provides the norm and L2 distance, CSV serialization, and the one
band-limited evaluator `trig_interpolate` (one FFT and a chirp-z, every
phase reduced exactly by `_turns`).  Resampling under coordinate rescaling
(the discrete realization of substitutions like chi' -> scale*chi'),
point evaluation of a chi function, and `boost_field`, which boosts
packets and blip states, all read samples through it.

`write_csv` writes the bytes np.savetxt(fmt="%.17g") would, a block of
rows at a time: each number's 17 correctly rounded digits come from an
exact double-double product with a power of ten (Dekker 1971), and the
text is assembled by array operations.  NaN, inf, |decimal exponent| > 280
(subnormals too) and values within 2**-40 of a decimal rounding tie are
formatted by Python's '%.17g' instead.
"""

from __future__ import annotations

import enum
import functools
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


# write_csv's text: the 17 digits of %.17g come from a double-double
# product with a power of ten, and the characters of a block of rows are
# assembled as 64-bit words whose NUL bytes are then dropped.

_CSV_BLOCK_ROWS = 4096
_EXP_LIMIT = 280  # a larger |decimal exponent| (subnormals too) goes to Python
_K_MIN = 16 - _EXP_LIMIT - 1  # 10**k for _K_MIN <= k <= _K_MAX scales every
_K_MAX = 16 + _EXP_LIMIT + 1  # such number into [1e16, 1e17]
_DEKKER_SPLIT = 2.0 ** 27 + 1
_TIE_BOUND = 2.0 ** -40  # far above the scaled value's error, 5e-15
_WORD = np.dtype("<u8")


@functools.cache
def _powers_of_ten() -> tuple[np.ndarray, ...]:
    """10**k for _K_MIN <= k <= _K_MAX as hi + lo, to 2**-106 relative,
    and hi split into two 26-bit halves for Dekker's product.
    """
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k >= 0:
            h = float(10 ** k)
            lo.append(float(10 ** k - int(h)))
        else:  # int true division is correctly rounded
            h = 1 / 10 ** -k
            num, den = h.as_integer_ratio()
            lo.append((den - num * 10 ** -k) / (den * 10 ** -k))
        hi.append(h)
    hi = np.array(hi)
    top = _DEKKER_SPLIT * hi
    top -= top - hi
    return tuple(map(frozen, (hi, top, hi - top, np.array(lo))))  # shared by every call


def _scale_by_power_of_ten(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**k as h + l with |l| <= ulp(h)/2, within 5e-15 of it where it
    lies in [1e16, 1e17]: Dekker's exact product a*hi (Numer. Math. 18,
    1971) plus a*lo.  Written in place to keep a block's memory small.
    """
    hi, hi_top, hi_low, lo = _powers_of_ten()
    i = k - _K_MIN
    p = a * np.take(hi, i)
    a_top = _DEKKER_SPLIT * a
    a_low = a_top - a
    a_top -= a_low
    np.subtract(a, a_top, out=a_low)
    top = np.take(hi_top, i)
    t = a_top * top
    t -= p  # t = ((a_top*top - p) + a_top*low + a_low*top) + a_low*low + a*lo
    low = np.take(hi_low, i)
    t += np.multiply(a_top, low, out=a_top)
    t += np.multiply(a_low, top, out=top)
    t += np.multiply(a_low, low, out=low)
    t += np.multiply(a, np.take(lo, i, out=a_low), out=a_low)
    h = np.add(p, t, out=top)
    t -= np.subtract(h, p, out=p)
    return h, t


def _decimal_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 significant decimal digits of each x, correctly rounded, as
    an integer in [10**16, 10**17) (0 for a zero), the decimal exponent of
    the first digit, and whether the kernel decided them.  It does not for
    NaN and inf, for |exponent| > 280 (subnormals included), or where the
    scaled value lies within 2**-40 of a rounding tie (decimal ties such as
    1278675320000000.25 among them): Python formats those.
    """
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        exponent = np.log10(a)
    np.floor(exponent, out=exponent)
    outside = ~(np.abs(exponent) <= _EXP_LIMIT)
    a[outside] = 1.0
    exponent[outside] = 0.0
    exponent = exponent.astype(np.int64)
    h, l = _scale_by_power_of_ten(a, 16 - exponent)
    # log10 can be off by one next to a power of ten: rescale those.
    below = (h < 1e16) | ((h == 1e16) & (l < 0))
    above = (h > 1e17) | ((h == 1e17) & (l >= 0))
    redo = np.flatnonzero(below | above)
    if redo.size:
        exponent[redo] += above[redo].astype(np.int64) - below[redo]
        h[redo], l[redo] = _scale_by_power_of_ten(a[redo], 16 - exponent[redo])
    whole = np.floor(l)
    l -= whole
    exact = (np.abs(l - 0.5) > _TIE_BOUND) & (np.abs(exponent) <= _EXP_LIMIT) & ~outside
    whole += l > 0.5
    digits = h.astype(np.int64)  # h >= 1e16 > 2**53 is an integer
    digits += whole.astype(np.int64)
    carry = digits == 10 ** 17
    digits[carry] = 10 ** 16
    exponent += carry
    zero = x == 0
    digits[zero] = 0
    exponent[zero] = 0
    return digits, exponent, exact | zero


def _words(texts, at: int = 0) -> np.ndarray:
    """Each of `texts` from byte `at` of a little-endian 64-bit word."""
    return np.frombuffer(b"".join((bytes(at) + s).ljust(8, b"\0") for s in texts), _WORD)


@functools.cache
def _text_tables() -> dict[str, np.ndarray]:
    """The pieces _format_rows assembles a cell from.

    A cell (one number and the separator after it) is 4 words, 32 bytes:
    bytes 0-5 hold the sign and a "0.000" prefix, 6-23 the digits with the
    point inserted, 24-28 the exponent and 29-30 the separator.  Unused
    bytes are NUL.
    """
    exponents = range(-_EXP_LIMIT - 1, _EXP_LIMIT + 2)
    fixed = [-4 <= e < 17 for e in exponents]  # Python's 'g' rule at 17 digits
    leading = [b"0." + b"0" * (-e - 1) if f and e < 0 else b"" for e, f in zip(exponents, fixed)]
    # Where the point goes after (17: no point), and the fewest digits shown.
    point = [e + 1 if 0 <= e < 17 else 17 if f else 1 for e, f in zip(exponents, fixed)]
    fewest = [e + 1 if 0 <= e < 17 else 1 for e in exponents]
    # For each point position P and mantissa bytes shown (the point too):
    # the bytes kept in place, those shifted past the point, and the point.
    byte = np.arange(24)
    p, kept = np.arange(18)[:, None, None], np.arange(19)[None, :, None]
    insert = np.stack([(byte < 6 + np.minimum(p, kept)) * 0xFF,
                       ((byte > 6 + p) & (byte < 6 + kept)) * 0xFF,
                       ((byte == 6 + p) & (kept > p)) * ord(".")]).astype(np.uint8)
    quad = np.zeros((10000, 8), np.uint8)  # "0000" to "9999" as words
    quad[:, :4] = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + ord("0")
    chunks = np.arange(10000)
    return {name: frozen(table) for name, table in {  # shared by every call
        "quad": quad.view(_WORD)[:, 0],
        "zeros": sum(chunks % 10 ** j == 0 for j in range(1, 5)),  # trailing; 4 for 0
        "point": np.array(point),
        "fewest": np.array(fewest),
        "prefix": _words(sign + z for z in leading for sign in (b"", b"-")),
        "tail": _words(b"" if f else b"e%+03d" % e for e, f in zip(exponents, fixed)),
        # by word, then point * 19 + bytes shown, then part
        "insert": np.ascontiguousarray(
            insert.view(_WORD).reshape(3, 18 * 19, 3).transpose(2, 1, 0)),
        "separator": _words([b",", b",", b"\r\n"], at=5),
    }.items()}


def _format_rows(block: np.ndarray) -> bytes:
    """The bytes of "%.17g,%.17g,%.17g\r\n" % row for each row of a
    (rows, 3) float block.  A row with a number that `_decimal_digits`
    leaves undecided is formatted by Python.
    """
    rows = len(block)
    x = block.ravel()
    digits, exponent, exact = _decimal_digits(x)
    t = _text_tables()
    # The lead digit, four 4-digit chunks, and the trailing zeros.
    upper, lower = np.divmod(digits, 10 ** 8)
    lead, upper = np.divmod(upper, 10 ** 8)
    chunks = [*np.divmod(upper, 10 ** 4), *np.divmod(lower, 10 ** 4)]
    del digits, upper, lower
    zeros = np.take(t["zeros"], chunks[3])
    for i in (2, 1, 0):  # where every chunk after chunk i is 0000
        zeros = np.where(zeros == 4 * (3 - i), zeros + np.take(t["zeros"], chunks[i]), zeros)
    e = np.add(exponent, _EXP_LIMIT + 1, out=exponent)  # index of the exponent tables
    point = np.take(t["point"], e)
    kept = np.maximum(np.take(t["fewest"], e), 17 - zeros)
    kept += kept > point  # mantissa bytes shown
    layout = point * 19 + kept
    c1, c2, c3, c4 = (np.take(t["quad"], c) for c in chunks)
    del zeros, point, kept, chunks
    # Bytes 0-23 of each cell as three words: the sign and prefix, then
    # from byte 6 the lead digit and the four chunks.
    words = [np.take(t["prefix"], 2 * e + np.signbit(x))
             | (lead.astype(_WORD) + ord("0")) << 48 | c1 << 56,
             c1 >> 8 | c2 << 24 | c3 << 56,
             c3 >> 8 | c4 << 24]
    del lead, c1, c2, c3, c4
    # Insert the point: keep the bytes before it, shift those after it.
    cells = np.empty((rows, 3, 4), _WORD)
    carry = 0
    for w, word in enumerate(words):
        keep, shifted, dot = np.take(t["insert"][w], layout, axis=0).T
        shifted &= word << 8 | carry
        carry = word >> 56
        cells[..., w] = ((word & keep) | shifted | dot).reshape(rows, 3)
    cells[..., 3] = np.take(t["tail"], e).reshape(rows, 3) | t["separator"]
    del words, word, layout, e
    raw, width = cells.tobytes(), cells[0].nbytes
    del cells
    parts, start = [], 0
    for i in np.flatnonzero(~exact.reshape(rows, 3).all(axis=1)):
        parts.append(raw[start * width:i * width].translate(None, b"\0"))
        parts.append(("%.17g,%.17g,%.17g\r\n" % tuple(block[i].tolist())).encode())
        start = i + 1
    parts.append(raw[start * width:].translate(None, b"\0"))
    return b"".join(parts)


def write_csv(f: SampledFunction, path) -> None:
    """Write `coordinate,re,im` rows, coordinates ascending, 17 significant
    digits, every line ending in CRLF: the bytes of np.savetxt(...,
    fmt="%.17g", delimiter=",", newline="\r\n") for every input.

    Rows are formatted 4096 at a time, never all at once, so memory does
    not grow with the file.  The 17 correctly rounded digits of each number
    come from an exact double-double product with a power of ten
    (`_decimal_digits`), and the text from array operations
    (`_format_rows`).  A row holding NaN, inf, a number whose decimal
    exponent exceeds 280 in size (subnormals too) or one within 2**-40 of
    a decimal rounding tie is formatted by Python's '%.17g' instead.
    """
    columns = [f.axis.points(), f.values.real, f.values.imag]
    with open(path, "wb") as fh:
        fh.write(b"coordinate,re,im\r\n")
        for lo in range(0, f.axis.count, _CSV_BLOCK_ROWS):
            fh.write(_format_rows(
                np.column_stack([c[lo:lo + _CSV_BLOCK_ROWS] for c in columns])))


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
