"""Classical wave packets on the light cone.

A packet is one `SampledFunction` holding the complex analytic E amplitude
of a wave moving in its direction s, tagged "H"; B is never stored since a
traveling wave fixes B(chi) = s*E(chi)/c, which makes the E/B ratio
frame-invariant by construction.  Propagation is exact relabeling along
chi = x - s*c*t (`grid.evaluate_at`); a boost is `grid.boost_field` with
power 1, E_B(chi_B) = xi * E_A(xi * chi_B), and B follows with the same
factor since it is derived.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral
from .grid import FieldConstants, SampledFunction
from .grid import resample  # noqa: F401 (perfbench patches it)
from .kinematics import BoostParams, xi

__all__ = [
    "WorldlineBox",
    "box_energy",
    "total_energy",
    "transform_density",
    "spectrum",
    "spectral_centroid",
]


@dataclass(frozen=True)
class WorldlineBox:
    """A chi interval with its world-line density."""

    a1: float
    a2: float
    h: float = 1.0

    def __post_init__(self):
        if not self.a2 > self.a1:
            raise ValueError("box requires a2 > a1")
        if self.h <= 0:
            raise ValueError("h must be positive")


def box_energy(packet: SampledFunction, box: WorldlineBox,
               constants: FieldConstants = FieldConstants()) -> float:
    """Energy in a chi box: (A*eps / 2h) * int [|E|^2 + c^2 |B|^2] dchi.

    With B = s*E/c the bracket is exactly 2|E|^2.
    """
    pts = packet.axis.points()
    if box.a1 < pts[0] or box.a2 > pts[-1]:
        raise ValueError("box extends outside the sampled grid")
    mask = (pts >= box.a1) & (pts <= box.a2)
    total = packet.axis.step * 2.0 * float(np.sum(np.abs(packet.values[mask]) ** 2))
    return constants.area * constants.epsilon / (2.0 * box.h) * total


def total_energy(packet: SampledFunction,
                 constants: FieldConstants = FieldConstants()) -> float:
    """Whole-grid energy (A*eps/2) * int [|E|^2 + c^2|B|^2] dchi, no density
    factor.
    """
    total = packet.axis.step * 2.0 * float(np.sum(np.abs(packet.values) ** 2))
    return constants.area * constants.epsilon / 2.0 * total


def transform_density(h_A: float, s: int, boost: BoostParams) -> float:
    """World-line density in the boosted frame: h_B = gamma*(1-s*beta)*h_A."""
    if h_A <= 0:
        raise ValueError("density must be positive")
    return xi(s, boost) * h_A


def spectrum(packet: SampledFunction) -> tuple:
    """Momentum representation of the E amplitude, and its spectral centroid."""
    ft = spectral.to_momentum(packet)
    return ft, spectral_centroid(ft)


def spectral_centroid(ft: SampledFunction) -> float | None:
    """The |ft|^2-weighted mean k (None for a zero ft).  A positive factor
    on ft, such as a blip state's to its packet's, leaves it unchanged.
    """
    weights = np.abs(ft.values)
    weights **= 2
    total = weights.sum()
    if total == 0.0:
        return None
    weights *= ft.axis.points()
    return float(np.sum(weights) / total)
