"""Classical wave packets on the light cone.

A packet is a `Field` that stores complex analytic E amplitudes in its
(s, "H") channels; the magnetic amplitude is never stored because a
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
from .grid import Field, resample  # noqa: F401 (perfbench patches it)
from .kinematics import BoostParams, xi

__all__ = [
    "WorldlineBox",
    "box_energy",
    "total_energy",
    "transform_density",
    "spectrum",
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


def box_energy(packet: Field, box: WorldlineBox) -> float:
    """Energy in a chi box: (A*eps / 2h) * int [|E|^2 + c^2 |B|^2] dchi,
    with A and eps the packet's constants.

    With B = s*E/c the bracket is exactly 2|E|^2.  Summed over channels.
    """
    total = 0.0
    for f in packet.channels.values():
        pts = f.axis.points()
        if box.a1 < pts[0] or box.a2 > pts[-1]:
            raise ValueError("box extends outside the sampled grid")
        mask = (pts >= box.a1) & (pts <= box.a2)
        total += f.axis.step * 2.0 * float(np.sum(np.abs(f.values[mask]) ** 2))
    return packet.constants.area * packet.constants.epsilon / (2.0 * box.h) * total


def total_energy(packet: Field) -> float:
    """Whole-grid energy (A*eps/2) * int [|E|^2 + c^2|B|^2] dchi, no density
    factor.
    """
    total = 0.0
    for f in packet.channels.values():
        total += f.axis.step * 2.0 * float(np.sum(np.abs(f.values) ** 2))
    return packet.constants.area * packet.constants.epsilon / 2.0 * total


def transform_density(h_A: float, s: int, boost: BoostParams) -> float:
    """World-line density in the boosted frame: h_B = gamma*(1-s*beta)*h_A."""
    if h_A <= 0:
        raise ValueError("density must be positive")
    return xi(s, boost) * h_A


def spectrum(packet: Field, s: int) -> tuple:
    """Momentum representation of the E channel, and its |E~|^2-weighted
    mean k (None for a zero field).
    """
    ft = spectral.to_momentum(packet.channel(s))
    weights = np.abs(ft.values)
    weights **= 2
    total = weights.sum()
    if total == 0.0:
        return ft, None
    weights *= ft.axis.points()
    return ft, float(np.sum(weights) / total)
