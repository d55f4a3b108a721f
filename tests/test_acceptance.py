"""End-to-end acceptance suite.

Each test prints a single pass/fail line for its criterion; the asserted
tolerances are the contract this package promises.
"""

import math
import pathlib
import shutil
import time

import numpy as np

from lcfield import classical_field as cf
from lcfield import quantum_blip as qb
from lcfield import spectral
from lcfield.cli import main
from lcfield.grid import (
    Axis,
    FieldConstants,
    Representation,
    SampledFunction,
    boost_field,
    l2_distance,
    norm,
)
from lcfield.kinematics import kappa, make_boost, simulate_signal_exchange, xi

from finite_part import finite_part_convolution

BIG_N = 2**14
BIG_SPAN = 200.0
BIG_AXIS = Axis(start=-100.0, step=BIG_SPAN / BIG_N, count=BIG_N)
DK = 2.0 * np.pi / BIG_SPAN
K0 = 20 * DK


def _report(num: int, description: str, ok: bool) -> None:
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {num} failed: {description}"


def gaussian_carrier(axis, s=1, width=12.0, carrier=K0, amplitude=1.0):
    chi = axis.points()
    vals = amplitude * np.exp(-(chi**2) / (2.0 * width**2)).astype(complex)
    vals *= np.exp(1j * s * carrier * chi)
    return SampledFunction(axis=axis, values=vals,
                           representation=Representation.POSITION_CHI, s=s)


def scaled(axis, factor):
    return Axis(start=axis.start * factor, step=axis.step * factor,
                count=axis.count)


def test_criterion_1_doppler_centroid_ratio():
    t0 = time.perf_counter()
    packet = gaussian_carrier(BIG_AXIS)
    _, base = cf.spectrum(packet)
    ok = True
    for beta, expected in [(0.6, 0.5), (0.5, math.sqrt(1.0 / 3.0))]:
        boost = make_boost(beta)
        boosted = boost_field(packet, boost, scaled(BIG_AXIS, kappa(1, boost)),
                              power=1)
        ratio = cf.spectrum(boosted)[1] / base
        ok = ok and abs(ratio - expected) / expected <= 1e-3
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _report(1, f"spectral-centroid Doppler ratios at beta=0.6, 0.5 "
               f"within 1e-3 ({elapsed:.2f}s)", ok)


def test_criterion_2_factor_algebra():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for beta in rng.uniform(-0.99, 0.99, size=1000):
        b, inv = make_boost(beta), make_boost(-beta)
        for s in (+1, -1):
            worst = max(worst,
                        abs(xi(s, b) * xi(s, inv) - 1.0),
                        abs(kappa(s, b) * kappa(s, inv) - 1.0),
                        abs(kappa(s, b) * xi(s, b) - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(2, f"reciprocity/duality over 1000 random beta within 1e-12 "
               f"(worst {worst:.2e}, {elapsed:.2f}s)", ok)


def test_criterion_3_signal_exchange():
    worst = 0.0
    for beta in (0.1, 0.5, 0.9):
        boost = make_boost(beta)
        t_emit_A = 1.0
        t_receive_A, t_emit_B, t_receive_B = simulate_signal_exchange(boost, t_emit_A)
        gamma_ref = 1.0 / math.sqrt((1.0 - beta) * (1.0 + beta))
        worst = max(worst,
                    abs(t_receive_B / t_emit_A - kappa(+1, boost)),
                    abs(t_emit_B / t_emit_A - gamma_ref),
                    abs(t_receive_A / t_receive_B - gamma_ref))
    ok = worst <= 1e-12
    _report(3, f"signal-exchange kappa and gamma chain within 1e-12 "
               f"(worst {worst:.2e})", ok)


def test_criterion_4_box_energy():
    packet = gaussian_carrier(BIG_AXIS)
    box_a = cf.WorldlineBox(-72.0, 72.0, h=1.0)
    e_a = cf.box_energy(packet, box_a)
    naive_a = cf.total_energy(packet)
    ok = True
    for beta in (0.6, 0.5, -0.3):
        boost = make_boost(beta)
        kap = kappa(1, boost)
        boosted = boost_field(packet, boost, scaled(BIG_AXIS, kap), power=1)
        box_b = cf.WorldlineBox(kap * box_a.a1, kap * box_a.a2,
                                h=cf.transform_density(1.0, 1, boost))
        ok = ok and abs(cf.box_energy(boosted, box_b) - e_a) / e_a <= 1e-6
        ratio = cf.total_energy(boosted) / naive_a
        ok = ok and abs(ratio - xi(1, boost)) / xi(1, boost) <= 1e-6
    _report(4, "box energy frame-invariant with corrected density (1e-6); "
               "uncorrected ratio equals the amplitude factor (1e-6)", ok)


def test_criterion_5_photon_number():
    ok = True
    for s in (+1, -1):
        f = gaussian_carrier(BIG_AXIS, s=s)
        nrm = norm(f)
        state = f.with_values(f.values / nrm)
        n_a = qb.photon_number(state)
        for beta in (0.3, -0.3, 0.6, -0.6, 0.9, -0.9):
            boost = make_boost(beta)
            target = scaled(BIG_AXIS, kappa(s, boost))
            n_b = qb.photon_number(boost_field(state, boost, target, power=0.5))
            ok = ok and abs(n_b - n_a) <= 1e-6
    _report(5, "photon number conserved for beta in {+-0.3, +-0.6, +-0.9}, "
               "both directions (1e-6)", ok)


def test_criterion_6_representation_commutativity():
    f = gaussian_carrier(BIG_AXIS)
    state = f.with_values(f.values / norm(f))
    boost = make_boost(0.6)
    target = scaled(BIG_AXIS, kappa(1, boost))
    via_chi = spectral.to_momentum(boost_field(state, boost, target, power=0.5))
    via_k = boost_field(spectral.to_momentum(state), boost, via_chi.axis, power=0.5)
    dist = l2_distance(via_chi, via_k)
    ok = dist <= 1e-6
    _report(6, f"boost-then-transform equals transform-then-boost "
               f"(L2 {dist:.2e} <= 1e-6)", ok)


def test_criterion_7_kernel_consistency():
    n, span = 4096, 80.0
    axis = Axis(start=-span / 2, step=span / n, count=n)
    width, carrier = 3.0, 2.0
    chi = axis.points()
    vals = np.exp(-(chi**2) / (2 * width**2)) * np.exp(1j * carrier * chi)
    state = SampledFunction(axis=axis, values=vals,
                            representation=Representation.POSITION_CHI, s=1)

    # spectral matrix element vs the slow finite-part quadrature oracle
    me = qb.field_matrix_element(spectral.to_momentum(state), axis)
    probe = np.linspace(-8.0, 8.0, 41)
    idx = np.searchsorted(chi, probe)
    psi = lambda u: np.exp(-(u**2) / (2 * width**2)) * np.exp(1j * carrier * u)
    oracle = finite_part_convolution(psi, chi[idx], FieldConstants(),
                                     outer_radius=span / 2 - 1.0)
    rel_oracle = (np.linalg.norm(me.values[idx] - oracle)
                  / np.linalg.norm(oracle))
    ok = rel_oracle <= 1e-3

    # boosted-frame consistency of the matrix element
    boost = make_boost(0.6)
    boosted = boost_field(state, boost, scaled(axis, 2.0), power=0.5)
    me_b = qb.field_matrix_element(spectral.to_momentum(boosted), scaled(axis, 2.0))
    discrepancy, _ = qb.kernel_consistency_check(me, me_b, boost)
    ok = ok and discrepancy <= 1e-3

    # sqrt(|k|) multiplier law
    multiplier = qb.kernel_multiplier(axis.conjugate())
    expected = math.sqrt(2.0) * np.sqrt(np.abs(axis.conjugate().points()))
    law = np.abs(multiplier - expected).max()
    ok = ok and law <= 1e-10
    _report(7, f"field matrix element vs finite-part oracle "
               f"({rel_oracle:.2e} <= 1e-3); boosted consistency "
               f"({discrepancy:.2e} <= 1e-3); sqrt|k| law "
               f"({law:.2e} <= 1e-10)", ok)


def test_criterion_8_spectral_machinery():
    ok = True
    for s in (+1, -1):
        f = gaussian_carrier(BIG_AXIS, s=s, width=6.0)
        ok = ok and spectral.parseval_check(f, spectral.to_momentum(f)) <= 1e-10
        back = spectral.to_position(spectral.to_momentum(f), target=f.axis)
        ok = ok and np.abs(back.values - f.values).max() <= 1e-10
    _report(8, "Parseval and forward/inverse round trip within 1e-10, "
               "both direction conventions", ok)


def test_criterion_9_mode_occupation_migration():
    t0 = time.perf_counter()
    f = gaussian_carrier(BIG_AXIS)
    state = f.with_values(f.values / norm(f))
    half = 5 * DK
    mom = spectral.to_momentum(state)
    before = qb.mode_occupation(mom, K0 - half, K0 + half)

    boost = make_boost(0.6)
    boosted = spectral.to_momentum(
        boost_field(state, boost, scaled(BIG_AXIS, kappa(1, boost)), power=0.5))
    leak = qb.mode_occupation(boosted, K0 - half, K0 + half)
    k_shift = xi(1, boost) * K0
    after = qb.mode_occupation(boosted, k_shift - half, k_shift + half)
    elapsed = time.perf_counter() - t0
    ok = before >= 0.98 and leak <= 1e-3 and after >= 0.98 and elapsed < 5.0
    _report(9, f"mode occupation migrates: original window {before:.4f} -> "
               f"{leak:.2e}, shifted window {after:.4f} ({elapsed:.2f}s)", ok)


def test_criterion_10_check_all(tmp_path):
    # A copy of the shipped configs keeps their tracked outputs untouched.
    scen = pathlib.Path(__file__).resolve().parents[1] / "scenarios"
    for cfg in scen.glob("*.cfg"):
        shutil.copy(cfg, tmp_path)
    t0 = time.perf_counter()
    code = main(["check-all", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    ok = code == 0 and elapsed < 60.0
    _report(10, f"check-all over the shipped scenario suite exits 0 "
                f"({elapsed:.1f}s < 60s)", ok)
