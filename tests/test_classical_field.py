import numpy as np
import pytest

from lcfield.classical_field import (
    WorldlineBox,
    box_energy,
    spectrum,
    total_energy,
    transform_density,
)
from lcfield.grid import (
    Axis,
    FieldConstants,
    Representation,
    SampledFunction,
    boost_field,
    evaluate_at,
    l2_distance,
    norm,
    resample,
)
from lcfield.kinematics import kappa, make_boost, xi

N = 4096
SPAN = 80.0
AXIS = Axis(start=-SPAN / 2, step=SPAN / N, count=N)


def gaussian_packet(s=1, width=3.0, center=0.0, carrier=0.0, amplitude=1.0,
                    axis=AXIS):
    chi = axis.points()
    vals = amplitude * np.exp(-((chi - center) ** 2) / (2 * width**2))
    vals = vals.astype(complex)
    if carrier:
        vals *= np.exp(1j * s * carrier * chi)
    return SampledFunction(axis=axis, values=vals,
                           representation=Representation.POSITION_CHI, s=s)


def unit_norm_packet(s=1, width=3.0):
    chi = AXIS.points()
    vals = (np.pi * width**2) ** -0.25 * np.exp(-chi**2 / (2 * width**2))
    return SampledFunction(axis=AXIS, values=vals,
                           representation=Representation.POSITION_CHI, s=s)


def scaled_axis(axis, factor):
    return Axis(start=axis.start * factor, step=axis.step * factor,
                count=axis.count)


class TestEvaluateAt:
    def test_time_zero_returns_grid_sample(self):
        packet = gaussian_packet()
        x = AXIS.points()[100]
        assert evaluate_at(packet, x, 0.0) == pytest.approx(
            complex(packet.values[100]), abs=1e-10)

    def test_constant_along_worldline(self):
        packet = gaussian_packet(center=2.0)
        peak0 = evaluate_at(packet, 2.0, 0.0)
        peak_t = evaluate_at(packet, 2.0 + 5.0, 5.0)
        assert peak_t == pytest.approx(peak0, abs=1e-10)
        assert abs(peak0) == pytest.approx(1.0, abs=1e-10)

    def test_opposite_channels_move_apart(self):
        right = gaussian_packet(+1, center=0.0)
        left = gaussian_packet(-1, center=0.0)
        t = 1.0
        # peaks sit at x = center + s*c*t
        assert abs(evaluate_at(right, +1.0, t)) == pytest.approx(1.0, abs=1e-10)
        assert abs(evaluate_at(left, -1.0, t)) == pytest.approx(1.0, abs=1e-10)
        assert abs(evaluate_at(right, -1.0, t)) < 0.9

    def test_out_of_grid_errors(self):
        packet = gaussian_packet()
        with pytest.raises(ValueError):
            evaluate_at(packet, SPAN, 0.0)


class TestBoostPacket:
    def test_identity_boost(self):
        packet = gaussian_packet(carrier=2.0)
        boosted = boost_field(packet, make_boost(0.0), AXIS, power=1)
        assert np.abs(boosted.values - packet.values).max() < 1e-10

    def test_gaussian_closed_form(self):
        w, e0 = 3.0, 1.3
        packet = gaussian_packet(width=w, amplitude=e0)
        boost = make_boost(0.6)  # kappa=2, xi=0.5
        target = scaled_axis(AXIS, 2.0)
        boosted = boost_field(packet, boost, target, power=1)
        chi = target.points()
        expected = 0.5 * e0 * np.exp(-((0.5 * chi) ** 2) / (2 * w**2))
        assert np.abs(boosted.values - expected).max() < 1e-6

    def test_roundtrip(self):
        packet = gaussian_packet(carrier=2.0)
        boost = make_boost(0.6)
        there = boost_field(packet, boost, scaled_axis(AXIS, kappa(1, boost)), power=1)
        back = boost_field(there, make_boost(-boost.beta), AXIS, power=1)
        assert l2_distance(back, packet) < 1e-6

    def test_amplitude_factor(self):
        packet = gaussian_packet(carrier=1.0)
        for beta, s in [(0.6, 1), (0.6, -1), (-0.3, 1)]:
            boost = make_boost(beta)
            target = scaled_axis(AXIS, kappa(s, boost))
            f = gaussian_packet(s, carrier=1.0)
            boosted = boost_field(f, boost, target, power=1)
            ratio = (np.abs(boosted.values).max()
                     / np.abs(f.values).max())
            assert ratio == pytest.approx(xi(s, boost), rel=1e-6)


class TestBoxEnergy:
    def test_zero_field(self):
        zero = SampledFunction(axis=AXIS, values=np.zeros(N),
                               representation=Representation.POSITION_CHI, s=1)
        assert box_energy(zero, WorldlineBox(-5, 5)) == 0.0

    def test_constant_field_energy_is_length(self):
        packet = SampledFunction(axis=AXIS, values=np.ones(N),
                                 representation=Representation.POSITION_CHI, s=1)
        # bracket doubles, prefactor halves: energy = box length
        box = WorldlineBox(-10.0, 10.0, h=1.0)
        # endpoints fall on grid points; the closed sum counts one extra step
        assert box_energy(packet, box) == pytest.approx(20.0, rel=1e-3)

    def test_inverse_linearity_in_density(self):
        packet = gaussian_packet()
        e1 = box_energy(packet, WorldlineBox(-9, 9, h=1.0))
        e2 = box_energy(packet, WorldlineBox(-9, 9, h=0.5))
        assert e2 == pytest.approx(2.0 * e1, rel=1e-12)

    def test_box_outside_grid_rejected(self):
        packet = gaussian_packet()
        with pytest.raises(ValueError):
            box_energy(packet, WorldlineBox(-SPAN, 0.0))

    def test_frame_invariance_with_corrected_density(self):
        packet = gaussian_packet(width=3.0, carrier=2.0)
        box_a = WorldlineBox(-18.0, 18.0, h=1.0)
        e_a = box_energy(packet, box_a)
        for beta, s in [(0.6, 1), (0.5, 1), (-0.3, 1)]:
            boost = make_boost(beta)
            kap = kappa(s, boost)
            boosted = boost_field(packet, boost, scaled_axis(AXIS, kap), power=1)
            box_b = WorldlineBox(kap * box_a.a1, kap * box_a.a2,
                                 h=transform_density(1.0, s, boost))
            e_b = box_energy(boosted, box_b)
            assert e_b == pytest.approx(e_a, rel=1e-6)


class TestTotalEnergy:
    def test_zero(self):
        zero = SampledFunction(axis=AXIS, values=np.zeros(N),
                               representation=Representation.POSITION_CHI, s=1)
        assert total_energy(zero) == 0.0

    def test_unit_norm_gaussian(self):
        packet = unit_norm_packet()
        assert total_energy(packet) == pytest.approx(1.0, abs=1e-8)

    def test_naive_ratio_is_xi(self):
        packet = gaussian_packet(width=3.0, carrier=2.0)
        e_a = total_energy(packet)
        for beta, s in [(0.6, 1), (0.9, 1), (-0.5, 1)]:
            boost = make_boost(beta)
            boosted = boost_field(packet, boost,
                                  scaled_axis(AXIS, kappa(s, boost)), power=1)
            assert total_energy(boosted) / e_a == pytest.approx(
                xi(s, boost), rel=1e-6)


class TestDensity:
    def test_identity(self):
        assert transform_density(1.0, 1, make_boost(0.0)) == 1.0

    def test_value(self):
        assert transform_density(1.0, 1, make_boost(0.6)) == pytest.approx(0.5)

    def test_worldline_count_invariant(self):
        # h_A * dx_A = h_B * dx_B for corresponding boxes
        boost = make_boost(0.7)
        h_a, dx_a = 1.3, 4.0
        h_b = transform_density(h_a, 1, boost)
        dx_b = kappa(1, boost) * dx_a
        assert h_a * dx_a == pytest.approx(h_b * dx_b, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            transform_density(0.0, 1, make_boost(0.1))


class TestSpectrum:
    def test_carrier_centroid(self):
        packet = gaussian_packet(width=6.0, carrier=2.0)
        assert spectrum(packet)[1] == pytest.approx(2.0, abs=1e-6)

    def test_real_even_packet_centroid_zero(self):
        packet = gaussian_packet(width=4.0)
        assert abs(spectrum(packet)[1]) < 1e-10

    def test_zero_field_flagged(self):
        zero = SampledFunction(axis=AXIS, values=np.zeros(N),
                               representation=Representation.POSITION_CHI, s=1)
        _, centroid = spectrum(zero)
        assert centroid is None

    def test_doppler_centroid_ratio(self):
        # 2^14-point grid per the stated tolerance
        n = 2**14
        ax = Axis(start=-100.0, step=200.0 / n, count=n)
        dk = 2 * np.pi / 200.0
        packet = gaussian_packet(1, width=12.0, carrier=20 * dk, axis=ax)
        _, base = spectrum(packet)
        boost = make_boost(0.6)
        boosted = boost_field(packet, boost, scaled_axis(ax, kappa(1, boost)), power=1)
        ratio = spectrum(boosted)[1] / base
        assert ratio == pytest.approx(xi(1, boost), rel=1e-3)


def spectral_law_discrepancy(packet, boost, target):
    """Relative L2 gap between the spectrum of the boosted packet and the
    rescaled source spectrum E~_A(kappa * k_B), computed independently.
    """
    lhs, _ = spectrum(boost_field(packet, boost, target, power=1))
    rhs = resample(spectrum(packet)[0], scale=kappa(1, boost),
                   amplitude_factor=1.0, target=lhs.axis)
    return l2_distance(lhs, rhs) / norm(lhs)


class TestSpectralTransformCheck:
    def test_identity_boost(self):
        packet = gaussian_packet(width=4.0, carrier=2.0)
        assert spectral_law_discrepancy(packet, make_boost(0.0), AXIS) < 1e-10

    def test_gaussian_carrier_beta06(self):
        packet = gaussian_packet(width=4.0, carrier=2.0)
        boost = make_boost(0.6)
        target = scaled_axis(AXIS, kappa(1, boost))
        assert spectral_law_discrepancy(packet, boost, target) < 1e-6

    def test_real_gaussian_keeps_symmetric_spectrum(self):
        packet = gaussian_packet(width=4.0)
        boost = make_boost(0.6)
        target = scaled_axis(AXIS, kappa(1, boost))
        boosted = boost_field(packet, boost, target, power=1)
        assert abs(spectrum(boosted)[1]) < 1e-10


def test_packet_validation():
    with pytest.raises(ValueError):
        FieldConstants(c=-1.0)
    with pytest.raises(ValueError):
        WorldlineBox(2.0, 1.0)
