"""Single-excitation blip states and their observables.

States live in the one-photon sector and are represented by complex
amplitude functions per (direction, polarization) channel; the squared
norm is the photon-number expectation.  The electric-field matrix element
applies the singular convolution kernel -sqrt(hbar/(4*pi*eps*c*A)) *
|u|^{-3/2} as a Fourier multiplier proportional to sqrt(|k|); a Hadamard
finite-part quadrature of the same kernel serves as the independent slow
oracle that pins the multiplier's sign and magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from . import spectral
from .grid import (Axis, Field, FieldConstants, SampledFunction, l2_distance, norm,
                   resample)
from .kinematics import BoostParams, kappa, xi

__all__ = [
    "RegularisationKernel",
    "boost_blip",
    "photon_number",
    "to_momentum_state",
    "to_position_state",
    "boost_momentum_state",
    "mode_occupation",
    "field_matrix_element",
    "kernel_consistency_check",
    "finite_part_convolution",
]


def _photon_rescale(f: SampledFunction, scale: float, target: Axis) -> SampledFunction:
    """g(x) = sqrt(scale) * f(scale * x): the norm-keeping one-photon rule."""
    return resample(f, scale=scale, amplitude_factor=math.sqrt(scale),
                    target=target)


def boost_blip(state: Field, boost: BoostParams, target: Axis) -> Field:
    """psi_B(chi_B) = sqrt(xi) * psi_A(xi * chi_B), channel by channel.

    The sqrt(xi) amplitude keeps the squared norm, hence the photon
    number, invariant.
    """
    return state.map(lambda f: _photon_rescale(f, xi(f.s, boost), target))


def photon_number(state: Field) -> float:
    """Sum over channels of int |psi|^2; works for both representations."""
    return float(sum(norm(f) ** 2 for f in state.channels.values()))


def to_momentum_state(state: Field) -> Field:
    return state.map(spectral.to_momentum)


def to_position_state(mstate: Field, target: Axis | None = None) -> Field:
    return mstate.map(lambda f: spectral.to_position(f, target))


def boost_momentum_state(mstate: Field, boost: BoostParams, target: Axis) -> Field:
    """psi~_B(k_B) = sqrt(kappa) * psi~_A(kappa * k_B), channel by channel."""
    return mstate.map(lambda f: _photon_rescale(f, kappa(f.s, boost), target))


def mode_occupation(mstate: Field, k_lo: float, k_hi: float) -> float:
    """int over [k_lo, k_hi] of |psi~(k)|^2 dk, summed over channels."""
    if not k_hi > k_lo:
        raise ValueError("empty wavenumber window")
    total = 0.0
    for f in mstate.channels.values():
        pts = f.axis.points()
        mask = (pts >= k_lo) & (pts <= k_hi)
        total += f.axis.step * float(np.sum(np.abs(f.values[mask]) ** 2))
    return total


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
        self.constants = constants
        self.prefactor = -math.sqrt(
            constants.hbar / (4.0 * math.pi * constants.epsilon
                              * constants.c * constants.area))
        k = k_axis.points()
        self.multiplier = (constants.c * self.prefactor
                           * (-2.0) * np.sqrt(2.0 * np.pi * np.abs(k)))
        self.multiplier.flags.writeable = False

    def export_csv(self, path) -> None:
        """Write `k,m_re,m_im` rows for audit."""
        np.savetxt(path, np.column_stack([self.k_axis.points(), self.multiplier,
                                          np.zeros(self.k_axis.count)]),
                   fmt="%.17g", delimiter=",", header="k,m_re,m_im",
                   comments="", newline="\r\n")


def field_matrix_element(state: Field, s: int) -> SampledFunction:
    """Vacuum-to-one-photon matrix element of the electric field for the
    H channel with direction s: int c * R(chi - chi') * psi(chi') dchi',
    computed as the sqrt(|k|) Fourier multiplier.

    The magnetic counterpart is s * result / c.
    """
    f = state.channel(s, "H")
    ft = spectral.to_momentum(f)
    kernel = RegularisationKernel(ft.axis, state.constants)
    out = ft.with_values(kernel.multiplier * ft.values)
    return spectral.to_position(out, target=f.axis)


@dataclass(frozen=True)
class KernelCheckReport:
    rel_l2_discrepancy: float
    leakage: float


def kernel_consistency_check(me_A: SampledFunction, boosted: Field,
                             boost: BoostParams) -> KernelCheckReport:
    """Check that the field matrix element of the boosted state `boosted`
    matches the classical-field transformation xi * E_A(xi * chi_B) of
    `me_A`, the matrix element `field_matrix_element(state, s)` of the
    unboosted state.  Both sides are computed by independent code paths;
    agreement witnesses the |u|^{-3/2} kernel homogeneity R(kappa*u) =
    kappa^{-3/2} R(u).
    """
    s = me_A.s
    # rhs first, so that its chirp-z temporaries do not coexist with lhs.
    rhs = resample(me_A, scale=xi(s, boost), amplitude_factor=xi(s, boost),
                   target=boosted.channel(s, "H").axis)
    lhs = field_matrix_element(boosted, s)
    ref = norm(lhs)
    num = l2_distance(lhs, rhs)
    disc = num / ref if ref > 0 else num
    return KernelCheckReport(rel_l2_discrepancy=disc,
                             leakage=max(lhs.leakage, rhs.leakage))


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
