"""Direction-signed Fourier transforms between chi and k representations.

Forward kernel is e^{-i*s*k*chi}, inverse e^{+i*s*k*chi}, both with the
symmetric 1/sqrt(2*pi) normalization; discrete sums carry the grid step so
the discrete and continuum normalizations agree.  The k axis is symmetric
about zero, so negative wave numbers are always present.  Phases are
reduced exactly by `grid._turns`, as in the band-limited evaluator.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import Axis, Representation, SampledFunction, _cis, _turns, frozen, norm

__all__ = ["to_momentum", "to_position", "parseval_check"]


def _apply_linear_phase(src: np.ndarray, out: np.ndarray, r: float) -> None:
    """out = src * exp(2*pi*i*r*q) for q = -n/2 ... n/2 - 1; `out` may be `src`.

    When 2*r is an integer (a grid with start/step = -n/2 has r = -+1/2),
    the phase is exactly 1, or (-1)**q on a half turn: `src` is copied,
    and negated where q is odd.  Otherwise q = -n/2 + width*h + l makes the
    phase the outer product of a coarse table (over rows h) and a fine one
    (over l): about 2*sqrt(n) complex exps, multiplied out a block of rows
    (about 2**15 products) at a time.
    """
    n = len(out)
    if (2 * r).is_integer():
        if out is not src:
            np.copyto(out, src)
        if r % 1:
            out[(n // 2 + 1) % 2::2] *= -1  # from the first index whose q is odd
        return
    width = 1 << (n.bit_length() // 2)
    coarse = _cis(_turns(r, np.arange(-(n // 2), n // 2, width)))
    fine = _cis(_turns(r, np.arange(width)))
    rows = max(1, 2**15 // width)
    for h in range(0, len(coarse), rows):
        lo, hi = h * width, min((h + rows) * width, n)
        phase = (coarse[h:h + rows, None] * fine).ravel()[:hi - lo]
        np.multiply(src[lo:hi], phase, out=out[lo:hi])


def _signed_dft(values: np.ndarray, offset: float, sign: int, to_k: bool) -> np.ndarray:
    """The sums of values * exp(i*sign*k*chi) between the chi axis
    chi_j = (offset + j)*dx and its conjugate k axis k_m = (m - n/2)*dk,
    dk*dx = 2*pi/n: over j, giving out[m], when `to_k`; else over m,
    giving out[j].

    k*chi*n/(2*pi) = (m - n/2)*(offset + j) = offset*(m - n/2) + m*j - (n/2)*j.
    The first term is a linear phase on the k index, reduced exactly; the
    second is the FFT; the last is (-1)**j, a sign flip on every other chi
    sample.  Besides the FFT's own scratch, the result is the only n-long
    array allocated.
    """
    n = len(values)
    r = sign * offset / n
    if to_k:
        out = np.array(values, dtype=complex)
        out[1::2] *= -1
    else:
        out = np.empty(n, dtype=complex)
        _apply_linear_phase(values, out, r)
    if sign == -1:
        np.fft.fft(out, out=out)
    else:
        np.fft.ifft(out, norm="forward", out=out)
    if to_k:
        _apply_linear_phase(out, out, r)
    else:
        out[1::2] *= -1
    return out


def to_momentum(f: SampledFunction) -> SampledFunction:
    """Transform chi samples to the conjugate symmetric k axis."""
    if f.representation is not Representation.POSITION_CHI:
        raise ValueError("to_momentum requires a position-chi function")
    k_axis = f.axis.conjugate()
    out = _signed_dft(f.values, f.axis.start / f.axis.step, sign=-f.s, to_k=True)
    out *= f.axis.step / np.sqrt(2.0 * np.pi)
    return SampledFunction(axis=k_axis, values=frozen(out),
                           representation=Representation.MOMENTUM_K,
                           s=f.s, pol=f.pol, leakage=f.leakage)


def to_position(f: SampledFunction, target: Axis | None = None) -> SampledFunction:
    """Inverse transform with kernel e^{+i*s*k*chi}; exact inverse of
    to_momentum when `target` is the chi axis the momentum grid came from.

    Defaults to the zero-centred chi axis conjugate to the k grid.
    """
    if f.representation is not Representation.MOMENTUM_K:
        raise ValueError("to_position requires a momentum-k function")
    n = f.axis.count
    if not math.isclose(f.axis.start, -(n // 2) * f.axis.step, rel_tol=1e-12):
        raise ValueError("k axis is not symmetric about zero (see Axis.conjugate)")
    chi_axis = target if target is not None else f.axis.conjugate()
    if chi_axis.count != n or not np.isclose(chi_axis.step * f.axis.step * n,
                                             2.0 * np.pi):
        raise ValueError("target chi axis is not conjugate to the k grid")
    out = _signed_dft(f.values, chi_axis.start / chi_axis.step, sign=+f.s, to_k=False)
    out *= f.axis.step / np.sqrt(2.0 * np.pi)
    return SampledFunction(axis=chi_axis, values=frozen(out),
                           representation=Representation.POSITION_CHI,
                           s=f.s, pol=f.pol, leakage=f.leakage)


def parseval_check(f: SampledFunction, ft: SampledFunction) -> float:
    """Relative error between ||f||^2 on the chi grid and ||f~||^2 on the k
    grid, where `ft` is `to_momentum(f)`, which the caller already holds.
    It is the absolute error when ||f|| = 0.
    """
    if f.representation is not Representation.POSITION_CHI:
        raise ValueError("parseval_check requires a position-chi function")
    if ft.representation is not Representation.MOMENTUM_K or ft.axis != f.axis.conjugate():
        raise ValueError("parseval_check requires f's momentum representation as ft")
    p = norm(f) ** 2
    error = abs(p - norm(ft) ** 2)
    return error / p if p != 0.0 else error
