import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lcfield.kinematics import (
    BoostParams,
    kappa,
    lorentz_factor,
    make_boost,
    simulate_signal_exchange,
    xi,
)

betas = st.floats(min_value=-0.99, max_value=0.99)
directions = st.sampled_from([+1, -1])


class TestMakeBoost:
    def test_identity(self):
        assert make_boost(0.0).gamma == 1.0

    def test_closed_form(self):
        assert make_boost(0.6).gamma == pytest.approx(1.25, rel=1e-15)

    def test_near_luminal_is_finite(self):
        b = make_boost(0.99999)
        assert math.isfinite(b.gamma)
        assert b.gamma == pytest.approx(223.6073568, rel=1e-9)

    def test_extreme_beta_no_overflow(self):
        b = make_boost(1.0 - 1e-16)
        assert math.isfinite(b.gamma)

    def test_lorentz_factor_of_an_array_is_make_boosts(self):
        beta = np.random.default_rng(3).uniform(-0.999, 0.999, size=500)
        b = BoostParams(beta, lorentz_factor(beta))
        for i in range(len(beta)):
            one = make_boost(beta[i])
            assert (b.gamma[i], kappa(1, b)[i], xi(-1, b)[i]) == (
                one.gamma, kappa(1, one), xi(-1, one))
        assert type(make_boost(0.6).gamma) is float

    @pytest.mark.parametrize("bad", [1.0, -1.0, 1.5, float("nan"), float("inf")])
    def test_rejects_superluminal_and_nonfinite(self, bad):
        with pytest.raises(ValueError):
            make_boost(bad)


class TestFactors:
    def test_kappa_values(self):
        b = make_boost(0.6)
        assert kappa(+1, b) == pytest.approx(2.0, rel=1e-15)
        assert kappa(-1, b) == pytest.approx(0.5, rel=1e-15)
        assert kappa(+1, make_boost(0.0)) == 1.0

    def test_xi_values(self):
        b = make_boost(0.6)
        assert xi(+1, b) == pytest.approx(0.5, rel=1e-15)
        assert xi(-1, b) == pytest.approx(2.0, rel=1e-15)
        assert xi(+1, make_boost(0.0)) == 1.0
        assert xi(-1, make_boost(0.0)) == 1.0

    def test_rejects_bad_direction(self):
        with pytest.raises(ValueError):
            kappa(0, make_boost(0.5))

    @given(beta=betas, s=directions)
    def test_reciprocity(self, beta, s):
        b = make_boost(beta)
        inv = make_boost(-beta)
        assert xi(s, b) * xi(s, inv) == pytest.approx(1.0, abs=1e-12)
        assert kappa(s, b) * kappa(s, inv) == pytest.approx(1.0, abs=1e-12)

    @given(beta=betas, s=directions)
    def test_duality(self, beta, s):
        b = make_boost(beta)
        assert kappa(s, b) == pytest.approx(xi(-s, b), abs=1e-12)
        assert kappa(s, b) * xi(s, b) == pytest.approx(1.0, abs=1e-12)


class TestCoordinates:
    @given(beta=betas, s=directions, chi=st.floats(-1e6, 1e6))
    def test_roundtrip_identity(self, beta, s, chi):
        b = make_boost(beta)
        there = kappa(s, b) * chi
        back = kappa(s, make_boost(-beta)) * there
        assert back == pytest.approx(chi, rel=1e-12, abs=1e-12)

    def test_exact_scalar_roundtrip(self):
        # kappa * xi is an exact product of reciprocal factors at beta=0.6
        b = make_boost(0.6)
        assert kappa(+1, make_boost(-0.6)) * (kappa(+1, b) * 7.0) == 7.0


class TestInverseAndComposition:
    def test_inverse_negates_beta(self):
        inv = make_boost(-0.6)
        assert inv.beta == -0.6
        assert inv.gamma == pytest.approx(1.25, rel=1e-15)
        assert make_boost(-0.0).beta == 0.0

    def test_composition_values(self):
        # Velocity addition (0.5 (+) 0.5 = 0.8, 0.6 (+) -0.6 = 0) seen
        # through kappa, which composes by multiplication.
        half = kappa(+1, make_boost(0.5))
        assert kappa(+1, make_boost(0.8)) == pytest.approx(half * half, rel=1e-15)
        assert kappa(+1, make_boost(0.8)) == pytest.approx(3.0, rel=1e-15)
        assert kappa(+1, make_boost(0.6)) * kappa(+1, make_boost(-0.6)) == pytest.approx(1.0, rel=1e-15)

    @given(beta=betas)
    def test_inverse_gamma_is_bitwise_even(self, beta):
        # The boost back is make_boost(-beta); its gamma is the same float
        # because (1 - b)*(1 + b) and (1 + b)*(1 - b) round alike.
        assert make_boost(-beta).gamma == make_boost(beta).gamma

    @given(b1=betas, b2=betas, s=directions)
    def test_kappa_multiplicative(self, b1, b2, s):
        first, second = make_boost(b1), make_boost(b2)
        combined = make_boost((b1 + b2) / (1.0 + b1 * b2))
        assert kappa(s, combined) == pytest.approx(
            kappa(s, first) * kappa(s, second), rel=1e-12)


class TestSignalExchange:
    def test_half_beta_chain(self):
        t_emit_A = 1.0
        t_receive_A, _, t_receive_B = simulate_signal_exchange(make_boost(0.5), t_emit_A)
        assert t_receive_A == pytest.approx(2.0, rel=1e-15)
        assert t_receive_B == pytest.approx(math.sqrt(3.0), rel=1e-12)
        assert t_receive_B / t_emit_A == pytest.approx(math.sqrt(3.0), rel=1e-12)

    def test_no_motion(self):
        t_emit_A = 1.0
        t_receive_A, t_emit_B, t_receive_B = simulate_signal_exchange(make_boost(0.0), t_emit_A)
        assert t_receive_A == t_receive_B == t_emit_B == 1.0
        assert t_receive_B / t_emit_A == 1.0

    @given(beta=betas, t=st.floats(min_value=1e-3, max_value=1e3))
    def test_measured_kappa_matches(self, beta, t):
        boost = make_boost(beta)
        _, _, t_receive_B = simulate_signal_exchange(boost, t_emit_A=t)
        assert t_receive_B / t == pytest.approx(kappa(+1, boost), abs=1e-12, rel=1e-12)

    def test_rejects_nonpositive_emission(self):
        with pytest.raises(ValueError):
            simulate_signal_exchange(make_boost(0.5), t_emit_A=0.0)


def test_signal_exchange_oracle_thousand_betas():
    import numpy as np
    rng = np.random.default_rng(42)
    for beta in rng.uniform(-0.99, 0.99, size=1000):
        boost = make_boost(beta)
        _, _, t_receive_B = simulate_signal_exchange(boost, t_emit_A=1.0)
        assert abs(t_receive_B - kappa(+1, boost)) < 1e-12
