import numpy as np
import pytest

from lcfield.grid import (
    Axis,
    FieldConstants,
    Representation,
    SampledFunction,
    boost_field,
    evaluate_at,
    l2_distance,
)
from lcfield.kinematics import kappa, make_boost, xi
from lcfield.quantum_blip import (
    field_matrix_element,
    kernel_consistency_check,
    kernel_multiplier,
    mode_occupation,
    photon_number,
)
from lcfield.spectral import to_momentum, to_position

from finite_part import finite_part_convolution

N = 4096
SPAN = 80.0
AXIS = Axis(start=-SPAN / 2, step=SPAN / N, count=N)


def unit_state(width=3.0, center=0.0, carrier=0.0, s=1, pol="H", axis=AXIS):
    chi = axis.points()
    vals = (np.pi * width**2) ** -0.25 * np.exp(
        -((chi - center) ** 2) / (2 * width**2))
    vals = vals.astype(complex)
    if carrier:
        vals *= np.exp(1j * s * carrier * chi)
    return SampledFunction(axis=axis, values=vals,
                           representation=Representation.POSITION_CHI,
                           s=s, pol=pol)


def matrix_element(state):
    """field_matrix_element of a chi-representation state, on its own axis."""
    return field_matrix_element(to_momentum(state), state.axis)


def scaled_axis(axis, factor):
    return Axis(start=axis.start * factor, step=axis.step * factor,
                count=axis.count)


class TestPropagation:
    def test_time_zero(self):
        state = unit_state()
        x = AXIS.points()[123]
        assert evaluate_at(state, x, 0.0) == pytest.approx(
            complex(state.values[123]), abs=1e-10)

    def test_peak_follows_worldline(self):
        state = unit_state(center=1.0)
        peak0 = evaluate_at(state, 1.0, 0.0)
        for t in (0.5, 2.0, 7.0):
            assert evaluate_at(state, 1.0 + t, t) == pytest.approx(
                peak0, abs=1e-10)

    def test_norm_time_independent(self):
        state = unit_state()
        n0 = photon_number(state)
        evaluate_at(state, 123.0, 123.0)  # representation is t-free
        assert photon_number(state) == n0

    def test_out_of_grid(self):
        with pytest.raises(ValueError):
            evaluate_at(unit_state(), SPAN, 0.0)

    @pytest.mark.parametrize("x,t", [(np.nan, 0.0), (0.0, np.inf), (np.nan, np.inf)])
    def test_non_finite_chi(self, x, t):
        with pytest.raises(ValueError, match="outside the sampled grid"):
            evaluate_at(unit_state(), x, t)


class TestBoostBlip:
    def test_identity(self):
        state = unit_state(carrier=2.0)
        boosted = boost_field(state, make_boost(0.0), AXIS, power=0.5)
        assert np.abs(boosted.values - state.values).max() < 1e-10

    def test_gaussian_closed_form(self):
        w = 3.0
        state = unit_state(width=w)
        boost = make_boost(0.6)  # xi = 0.5 for s = +1
        target = scaled_axis(AXIS, 2.0)
        boosted = boost_field(state, boost, target, power=0.5)
        chi = target.points()
        expected = np.sqrt(0.5) * (np.pi * w**2) ** -0.25 * np.exp(
            -((0.5 * chi) ** 2) / (2 * w**2))
        assert np.abs(boosted.values - expected).max() < 1e-8
        assert photon_number(boosted) == pytest.approx(1.0, abs=1e-8)

    def test_roundtrip(self):
        state = unit_state(carrier=1.5)
        boost = make_boost(0.6)
        there = boost_field(state, boost, scaled_axis(AXIS, kappa(1, boost)), power=0.5)
        back = boost_field(there, make_boost(-boost.beta), AXIS, power=0.5)
        assert l2_distance(back, state) < 1e-6

    @pytest.mark.parametrize("beta", [0.3, -0.3, 0.6, -0.6, 0.9, -0.9])
    @pytest.mark.parametrize("s", [+1, -1])
    def test_photon_number_conserved(self, beta, s):
        state = unit_state(carrier=1.0, s=s)
        boost = make_boost(beta)
        target = scaled_axis(AXIS, kappa(s, boost))
        boosted = boost_field(state, boost, target, power=0.5)
        assert photon_number(boosted) == pytest.approx(1.0, abs=1e-6)


class TestPhotonNumber:
    def test_vacuum(self):
        zero = SampledFunction(axis=AXIS, values=np.zeros(N),
                               representation=Representation.POSITION_CHI, s=1)
        assert photon_number(zero) == 0.0

    def test_unit_norm(self):
        assert photon_number(unit_state()) == pytest.approx(1.0, abs=1e-8)


class TestMomentumState:
    def test_gaussian_pair(self):
        w = 3.0
        mstate = to_momentum(unit_state(width=w))
        k = mstate.axis.points()
        expected = (w**2 / np.pi) ** 0.25 * np.exp(-(w**2) * k**2 / 2)
        assert np.abs(mstate.values - expected).max() < 1e-8

    def test_zero(self):
        zero = SampledFunction(axis=AXIS, values=np.zeros(N),
                               representation=Representation.POSITION_CHI, s=1)
        mstate = to_momentum(zero)
        assert np.all(mstate.values == 0)

    def test_roundtrip(self):
        state = unit_state(carrier=2.0)
        back = to_position(to_momentum(state), target=AXIS)
        assert np.abs(back.values - state.values).max() < 1e-10

    def test_norm_parseval(self):
        state = unit_state(carrier=2.0)
        assert photon_number(to_momentum(state)) == pytest.approx(
            photon_number(state), abs=1e-10)


class TestBoostMomentum:
    def test_identity(self):
        mstate = to_momentum(unit_state(carrier=2.0))
        boosted = boost_field(mstate, make_boost(0.0), mstate.axis,
                              power=0.5)
        assert np.abs(boosted.values - mstate.values).max() < 1e-10

    def test_peak_moves_to_doppler_shifted_mode(self):
        k0 = 2.0
        state = unit_state(width=8.0, carrier=k0)
        boost = make_boost(0.6)
        mstate = to_momentum(state)
        k_target = scaled_axis(AXIS, kappa(1, boost)).conjugate()
        boosted = boost_field(mstate, boost, k_target, power=0.5)
        peak = k_target.points()[np.argmax(np.abs(boosted.values))]
        assert peak == pytest.approx(xi(1, boost) * k0, abs=2 * k_target.step)

    def test_path_commutativity(self):
        state = unit_state(width=3.0, carrier=2.0)
        boost = make_boost(0.6)
        target = scaled_axis(AXIS, kappa(1, boost))
        via_chi = to_momentum(boost_field(state, boost, target, power=0.5))
        via_k = boost_field(to_momentum(state), boost,
                            via_chi.axis, power=0.5)
        assert l2_distance(via_chi, via_k) < 1e-6

    def test_norm_preserved(self):
        state = unit_state(carrier=1.0)
        boost = make_boost(0.8)
        k_target = scaled_axis(AXIS, kappa(1, boost)).conjugate()
        boosted = boost_field(to_momentum(state), boost, k_target, power=0.5)
        assert photon_number(boosted) == pytest.approx(1.0, abs=1e-6)


class TestModeOccupation:
    def test_full_axis_equals_photon_number(self):
        mstate = to_momentum(unit_state(carrier=1.0))
        kax = mstate.axis
        occ = mode_occupation(mstate, kax.start, kax.start + kax.span)
        assert occ == pytest.approx(1.0, abs=1e-8)

    def test_migration_under_boost(self):
        n = 2**14
        ax = Axis(start=-100.0, step=200.0 / n, count=n)
        dk = 2 * np.pi / 200.0
        k0 = 20 * dk
        state = unit_state(width=12.0, carrier=k0, axis=ax)
        mstate = to_momentum(state)
        window = (k0 - 5 * dk, k0 + 5 * dk)
        assert mode_occupation(mstate, *window) >= 0.98

        boost = make_boost(0.6)
        target = scaled_axis(ax, kappa(1, boost))
        boosted = to_momentum(boost_field(state, boost, target, power=0.5))
        assert mode_occupation(boosted, *window) <= 1e-3
        k_shift = xi(1, boost) * k0
        shifted = (k_shift - 5 * dk, k_shift + 5 * dk)
        assert mode_occupation(boosted, *shifted) >= 0.98

    def test_tail_window(self):
        mstate = to_momentum(unit_state(width=3.0, carrier=1.0))
        kax = mstate.axis
        # far spectral tail: carrier 1.0, width in k is 1/3
        assert mode_occupation(mstate, 5.0, kax.start + kax.span) <= 1e-6

    def test_rejects_empty_window(self):
        mstate = to_momentum(unit_state())
        with pytest.raises(ValueError):
            mode_occupation(mstate, 1.0, 1.0)


class TestKernelMultiplier:
    def test_multiplier_real_even_zero_at_dc(self):
        m = kernel_multiplier(AXIS.conjugate())
        k = AXIS.conjugate().points()
        assert np.all(np.isreal(m))
        assert m[np.argmin(np.abs(k))] == 0.0
        np.testing.assert_allclose(m, np.interp(np.abs(k), np.abs(k)[np.argsort(np.abs(k))],
                                                m[np.argsort(np.abs(k))]))

    def test_sqrt_k_law(self):
        m = kernel_multiplier(AXIS.conjugate())
        k = AXIS.conjugate().points()
        pos = k > 0
        ratio = m[pos] / np.sqrt(k[pos])
        assert np.abs(ratio - ratio[0]).max() < 1e-10

    def test_constant(self):
        # m(k) / sqrt(|k|) = sqrt(2*hbar*c/(eps*A)) = sqrt(2*3*2/(0.5*4)) = sqrt(6).
        constants = FieldConstants(c=2.0, hbar=3.0, epsilon=0.5, area=4.0)
        m = kernel_multiplier(AXIS.conjugate(), constants)
        k = np.abs(AXIS.conjugate().points())
        np.testing.assert_allclose(m[k > 0] / np.sqrt(k[k > 0]), np.sqrt(6.0), rtol=1e-13)


class TestFieldMatrixElement:
    def test_zero_state(self):
        zero = SampledFunction(axis=AXIS, values=np.zeros(N),
                               representation=Representation.POSITION_CHI, s=1)
        me = matrix_element(zero)
        assert np.all(me.values == 0)

    def test_v_polarization_same_as_h(self):
        # The multiplier does not depend on polarization; only the tag differs.
        me_h = matrix_element(unit_state(carrier=2.0, pol="H"))
        me_v = matrix_element(unit_state(carrier=2.0, pol="V"))
        assert me_v.pol == "V"
        np.testing.assert_array_equal(me_v.values, me_h.values)
        assert me_v.axis == me_h.axis and me_v.leakage == me_h.leakage

    def test_sqrt_carrier_scaling(self):
        # near-monochromatic state: peak |E| scales as sqrt(k0)
        k1, k2 = 1.0, 2.0
        m1 = matrix_element(unit_state(width=12.0, carrier=k1))
        m2 = matrix_element(unit_state(width=12.0, carrier=k2))
        ratio = np.abs(m2.values).max() / np.abs(m1.values).max()
        assert ratio == pytest.approx(np.sqrt(2.0), rel=1e-3)

    @staticmethod
    def oracle_rel_error(constants, stride):
        w, k0 = 3.0, 2.0

        def psi(x):
            return ((np.pi * w**2) ** -0.25
                    * np.exp(-x**2 / (2 * w**2)) * np.exp(1j * k0 * x))

        state = unit_state(width=w, carrier=k0)
        me = field_matrix_element(to_momentum(state), state.axis, constants)
        idx = np.arange(N // 2 - 250, N // 2 + 250, stride)
        chi = AXIS.points()[idx]
        oracle = finite_part_convolution(psi, chi, constants, inner_radius=1.0,
                                         outer_radius=SPAN / 2 - 5.0)
        return np.linalg.norm(me.values[idx] - oracle) / np.linalg.norm(oracle)

    def test_finite_part_oracle(self):
        assert self.oracle_rel_error(FieldConstants(), stride=10) < 1e-3

    def test_finite_part_oracle_with_constants(self):
        # field_matrix_element hands its constants on to kernel_multiplier.
        constants = FieldConstants(c=2.0, hbar=3.0, epsilon=0.5, area=4.0)
        assert self.oracle_rel_error(constants, stride=25) < 1e-3


def kernel_check(state, boost, target):
    return kernel_consistency_check(
        matrix_element(state), matrix_element(boost_field(state, boost, target, power=0.5)),
        boost)


class TestKernelConsistency:
    def test_identity(self):
        state = unit_state(carrier=2.0)
        discrepancy, _ = kernel_check(state, make_boost(0.0), AXIS)
        assert discrepancy < 1e-10

    def test_beta06(self):
        state = unit_state(width=3.0, carrier=2.0)
        boost = make_boost(0.6)
        target = scaled_axis(AXIS, kappa(1, boost))
        discrepancy, _ = kernel_check(state, boost, target)
        assert discrepancy < 1e-3

    def test_symmetric_under_frame_swap(self):
        state = unit_state(width=3.0, carrier=2.0)
        boost = make_boost(0.6)
        fwd, _ = kernel_check(state, boost, scaled_axis(AXIS, kappa(1, boost)))
        back = make_boost(-boost.beta)
        rev, _ = kernel_check(state, back, scaled_axis(AXIS, kappa(1, back)))
        assert fwd < 1e-3
        assert rev < 1e-3

    def test_kernel_homogeneity(self):
        # R(a*u) = a^{-3/2} R(u): field of the a-scaled state matches
        # a^{-3/2} times the suitably rescaled field of the original.
        from lcfield.grid import resample
        a = 2.0
        state = unit_state(width=3.0, carrier=2.0)
        target = scaled_axis(AXIS, a)
        # psi_a(chi) = psi(chi / a) on the stretched grid
        psi_a = resample(state, scale=1.0 / a, amplitude_factor=1.0,
                         target=target)
        me_a = matrix_element(psi_a)
        me = matrix_element(state)
        expected = a ** -0.5 * resample(me, scale=1.0 / a, amplitude_factor=1.0,
                                        target=target).values
        # a^{-3/2} from the kernel times the Jacobian a of the convolution
        rel = (np.linalg.norm(me_a.values - expected)
               / np.linalg.norm(expected))
        assert rel < 1e-3
