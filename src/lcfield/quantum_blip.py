"""Single-excitation blip states and their observables.

States live in the one-photon sector; a state is one complex amplitude
function, tagged with its direction and polarization, whose squared norm
is the photon-number expectation.  A boost, `grid.boost_field` with
power 1/2, keeps it: sqrt(xi) * psi(xi * chi), sqrt(kappa) * psi~(kappa * k).
The electric-field matrix element applies the singular convolution kernel
-sqrt(hbar/(4*pi*eps*c*A)) * |u|^{-3/2} as a Fourier multiplier
proportional to sqrt(|k|); the tests pin the multiplier's sign and
magnitude against a Hadamard finite-part quadrature of the same kernel.
"""

from __future__ import annotations

import math

import numpy as np

from . import spectral
from .grid import (Axis, FieldConstants, SampledFunction, boost_field, frozen,
                   l2_distance, norm, write_table)
from .grid import resample  # noqa: F401 (perfbench patches it)
from .kinematics import BoostParams

__all__ = [
    "RegularisationKernel",
    "photon_number",
    "mode_occupation",
    "field_matrix_element",
    "kernel_consistency_check",
]


def photon_number(state: SampledFunction) -> float:
    """int |psi|^2; works for both representations."""
    return norm(state) ** 2


def mode_occupation(mstate: SampledFunction, k_lo: float, k_hi: float) -> float:
    """int over [k_lo, k_hi] of |psi~(k)|^2 dk."""
    if not k_hi > k_lo:
        raise ValueError("empty wavenumber window")
    pts = mstate.axis.points()
    mask = (pts >= k_lo) & (pts <= k_hi)
    return mstate.axis.step * float(np.sum(np.abs(mstate.values[mask]) ** 2))


class RegularisationKernel:
    """Spectral form of the singular field-weighting kernel.

    The position-space kernel is prefactor * |u|^{-3/2} with prefactor
    -sqrt(hbar/(4*pi*eps*c*A)).  Its Hadamard finite-part Fourier
    transform is -2*sqrt(2*pi*|k|), so the multiplier applied to psi~(k)
    for the electric-field matrix element (including the factor c of the
    field observable) is

        m(k) = c * prefactor * (-2*sqrt(2*pi*|k|)) = sqrt(2*hbar*c/(eps*A)) * sqrt(|k|)

    real, even, with m(0) = 0 (the zero mode carries no energy).
    """

    def __init__(self, k_axis: Axis, constants: FieldConstants = FieldConstants()):
        self.k_axis = k_axis
        self.prefactor = -math.sqrt(
            constants.hbar / (4.0 * math.pi * constants.epsilon
                              * constants.c * constants.area))
        # c * prefactor * (-2) * sqrt(2*pi*|k|), computed in place.
        m = np.abs(k_axis.points())
        m *= 2.0 * np.pi
        np.sqrt(m, out=m)
        m *= constants.c * self.prefactor * (-2.0)
        self.multiplier = frozen(m)

    def export_csv(self, path) -> None:
        """Write `k,m_re,m_im` rows for audit."""
        write_table(path, "k,m_re,m_im", [self.k_axis.points(), self.multiplier,
                                          np.zeros(self.k_axis.count)])


def field_matrix_element(ft: SampledFunction, target: Axis,
                         constants: FieldConstants = FieldConstants()) -> SampledFunction:
    """Vacuum-to-one-photon matrix element of the electric field of an H
    state: int c * R(chi - chi') * psi(chi') dchi' on the chi axis
    `target`, computed as the sqrt(|k|) Fourier multiplier.

    `ft` is the state's momentum representation, `spectral.to_momentum` of
    a state sampled on `target`.  The magnetic counterpart is s * result / c.
    """
    if ft.pol != "H":
        raise ValueError(f"the matrix element needs an H-polarized state, got {ft.pol}")
    kernel = RegularisationKernel(ft.axis, constants)
    return spectral.to_position(ft.with_values(frozen(kernel.multiplier * ft.values)),
                                target=target)


def kernel_consistency_check(me_A: SampledFunction, me_B: SampledFunction,
                             boost: BoostParams) -> tuple:
    """Check that `me_B`, the field matrix element of the boosted state,
    matches the classical-field transformation xi * E_A(xi * chi) of `me_A`,
    the matrix element of the unboosted state.  The two sides are computed
    by independent code paths; agreement witnesses the |u|^{-3/2} kernel
    homogeneity R(kappa*u) = kappa^{-3/2} R(u).

    Returns the relative L2 discrepancy (absolute when `me_B` is zero) and
    the larger leakage of the two sides.
    """
    rhs = boost_field(me_A, boost, me_B.axis, power=1)
    ref = norm(me_B)
    num = l2_distance(me_B, rhs)
    disc = num / ref if ref > 0 else num
    return disc, max(me_B.leakage, rhs.leakage)

