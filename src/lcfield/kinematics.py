"""Boost parameters and the Doppler factors of the light-cone coordinate.

Works in the light-cone variable chi = x - s*c*t, where s = +1 labels
right-moving and s = -1 left-moving signals.  A boost with velocity
fraction beta rescales chi by the Doppler factor kappa = gamma*(1 + s*beta);
field amplitudes pick up the reciprocal factor xi = gamma*(1 - s*beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BoostParams",
    "lorentz_factor",
    "make_boost",
    "kappa",
    "xi",
    "simulate_signal_exchange",
]


def _check_direction(s: int) -> int:
    if s not in (+1, -1):
        raise ValueError(f"direction flag must be +1 or -1, got {s!r}")
    return s


@dataclass(frozen=True)
class BoostParams:
    """Relative velocity fraction beta and the cached Lorentz factor gamma.

    Both may also be arrays of the same shape (see `lorentz_factor`);
    `kappa` and `xi` then give arrays too.
    """

    beta: float
    gamma: float


def lorentz_factor(beta):
    """gamma = 1/sqrt(1 - beta**2) of a float or elementwise of an array,
    for |beta| < 1 (unchecked; `make_boost` checks a float).
    """
    # 1 - beta**2 underflows gracefully: beta = 1 - 1e-16 still yields a
    # finite gamma because the product (1-beta)*(1+beta) is computed first.
    return 1.0 / np.sqrt((1.0 - beta) * (1.0 + beta))


def make_boost(beta: float) -> BoostParams:
    """Build boost parameters for a subluminal relative velocity fraction."""
    beta = float(beta)
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta!r}")
    if abs(beta) >= 1.0:
        raise ValueError(f"|beta| must be < 1 (subluminal), got {beta!r}")
    return BoostParams(beta=beta, gamma=float(lorentz_factor(beta)))


def kappa(s: int, boost: BoostParams) -> float:
    """Doppler coordinate factor: chi_B = kappa * chi_A."""
    _check_direction(s)
    return boost.gamma * (1.0 + s * boost.beta)


def xi(s: int, boost: BoostParams) -> float:
    """Amplitude factor gamma*(1 - s*beta); reciprocal of kappa."""
    _check_direction(s)
    return boost.gamma * (1.0 - s * boost.beta)


def simulate_signal_exchange(boost: BoostParams, t_emit_A: float) -> tuple[float, float, float]:
    """Reenact the two-observer light-pulse exchange that measures kappa.

    Alice (at rest at her origin) emits a right-moving pulse at t_emit_A
    toward Bob, who recedes at beta (in units of c) having met Alice at
    t = 0.  The pulse catches Bob where t - t_emit_A = beta*t; time
    dilation relates each observer's clock to the other's.  Returns the
    triple `(t_receive_A, t_emit_B, t_receive_B)`: reception on Alice's
    clock, then emission and reception on Bob's.  The ratio
    t_receive_B / t_emit_A measures kappa = gamma*(1 + beta).
    """
    if not (t_emit_A > 0.0):
        raise ValueError(f"emission time must be positive, got {t_emit_A!r}")
    beta, gamma = boost.beta, boost.gamma
    # Catch-up condition in Alice's frame: reception at t_A2 = t_A1/(1-beta).
    t_receive_A = t_emit_A / (1.0 - beta)
    # Emitter is stationary for Alice, moving for Bob -> t_B1 = gamma*t_A1.
    t_emit_B = gamma * t_emit_A
    # Reception point moves with Bob -> Bob's clock reads t_A2/gamma there.
    t_receive_B = t_receive_A / gamma
    return t_receive_A, t_emit_B, t_receive_B
