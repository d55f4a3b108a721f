"""Slow test oracle for the field matrix element.

`finite_part_convolution` evaluates the |u|^{-3/2} kernel by Hadamard
finite-part quadrature, independently of `quantum_blip`'s sqrt(|k|)
Fourier multiplier, so the tests can pin that multiplier's sign and
magnitude.  It is the only user of `scipy.integrate`.
"""

from __future__ import annotations

import math

import numpy as np

from lcfield.grid import FieldConstants


def finite_part_convolution(psi, chi_points, constants: FieldConstants = FieldConstants(),
                            inner_radius: float = 1.0, outer_radius: float = 60.0):
    """Slow oracle: Hadamard finite-part quadrature of the field matrix
    element for a smooth callable amplitude psi.

    FP int |u|^{-3/2} g(u) du =
        int_{|u|<a} |u|^{-3/2} (g(u) - g(0)) du - 4 g(0)/sqrt(a)
        + int_{a<|u|<R} |u|^{-3/2} g(u) du

    applied to g(u) = psi(chi - u) at each requested chi, then scaled by
    c * prefactor.  psi must be negligible beyond `outer_radius`.
    """
    from scipy.integrate import quad  # imported here: only this oracle needs it

    prefactor = -math.sqrt(constants.hbar / (4.0 * math.pi * constants.epsilon
                                             * constants.c * constants.area))
    a, big = inner_radius, outer_radius

    def fp_at(chi: float, part) -> float:
        def g(u: float) -> float:
            return part(psi(chi - u))

        g0 = g(0.0)
        # quad flags the |u|^{-1/2}-type subtracted integrand as slowly
        # convergent even when the result is accurate; full_output
        # suppresses the warning.
        inner = quad(lambda u: (g(u) - g0) * u ** -1.5, 0.0, a,
                     limit=400, full_output=1)[0]
        inner += quad(lambda u: (g(-u) - g0) * u ** -1.5, 0.0, a,
                      limit=400, full_output=1)[0]
        outer = quad(lambda u: g(u) * u ** -1.5, a, big, limit=400)[0]
        outer += quad(lambda u: g(-u) * u ** -1.5, a, big, limit=400)[0]
        return inner + outer - 4.0 * g0 / math.sqrt(a)

    out = np.empty(len(chi_points), dtype=complex)
    for i, chi in enumerate(chi_points):
        out[i] = complex(fp_at(chi, np.real), fp_at(chi, np.imag))
    return constants.c * prefactor * out
