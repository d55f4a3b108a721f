import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from lcfield import grid
from lcfield.grid import (
    Axis,
    FieldConstants,
    Representation,
    SampledFunction,
    boost_field,
    l2_distance,
    norm,
    read_csv,
    resample,
    trig_interpolate,
    write_csv,
)
from lcfield.kinematics import kappa, make_boost, xi
from lcfield.spectral import to_momentum


def make_axis(n=1024, span=40.0, start=None):
    step = span / n
    if start is None:
        start = -span / 2
    return Axis(start=start, step=step, count=n)


def position_fn(axis, values, s=1, pol="H"):
    return SampledFunction(axis=axis, values=values,
                           representation=Representation.POSITION_CHI,
                           s=s, pol=pol)


def unit_gaussian(axis, width=2.0, center=0.0, carrier=0.0):
    chi = axis.points()
    vals = (np.pi * width**2) ** -0.25 * np.exp(
        -((chi - center) ** 2) / (2.0 * width**2))
    if carrier:
        vals = vals.astype(complex) * np.exp(1j * carrier * chi)
    return position_fn(axis, vals)


class TestAxis:
    def test_points(self):
        ax = Axis(start=1.0, step=0.5, count=4)
        np.testing.assert_allclose(ax.points(), [1.0, 1.5, 2.0, 2.5])

    def test_rejects_odd_count(self):
        with pytest.raises(ValueError):
            Axis(start=0.0, step=1.0, count=5)

    def test_rejects_bad_step_and_count(self):
        with pytest.raises(ValueError):
            Axis(start=0.0, step=0.0, count=4)
        with pytest.raises(ValueError):
            Axis(start=0.0, step=1.0, count=0)

    @pytest.mark.parametrize("start, step", [
        (math.nan, 1.0), (math.inf, 1.0), (0.0, math.nan), (0.0, math.inf),
        (1e308, 1e308),  # finite start and step, but the last point overflows
    ])
    def test_rejects_non_finite_points(self, start, step):
        with pytest.raises(ValueError):
            Axis(start=start, step=step, count=4)

    def test_conjugate_is_symmetric(self):
        ax = make_axis(n=256, span=10.0)
        k = ax.conjugate()
        assert k.count == 256
        assert k.step == pytest.approx(2 * np.pi / 10.0)
        assert k.start == pytest.approx(-128 * k.step)
        assert 0.0 in k.points()


@pytest.mark.parametrize("name", ["c", "hbar", "epsilon", "area"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
def test_field_constants_finite_and_positive(name, value):
    with pytest.raises(ValueError):
        FieldConstants(**{name: value})


def test_evaluate_at_matches_interpolant_without_scipy_signal():
    # evaluate_at is the evaluator's count-2 query at chi; no scipy module
    # takes part in either call.
    code = (
        "import sys, numpy as np\n"
        "from lcfield.grid import Axis, Representation, SampledFunction, "
        "evaluate_at, trig_interpolate\n"
        "ax = Axis(start=-100.0, step=200.0 / 2**14, count=2**14)\n"
        "x = ax.points()\n"
        "f = SampledFunction(axis=ax, values=np.exp(-x**2 / 288 + 0.6j * x),\n"
        "                    representation=Representation.POSITION_CHI, s=1)\n"
        "got = evaluate_at(f, 3.0123, 0.5)\n"
        "print('scipy.signal' in sys.modules)\n"
        "want = trig_interpolate(f, Axis(start=2.5123, step=ax.step, count=2))[0][0]\n"
        "print(abs(got - want) < 1e-14)\n")
    src = str(pathlib.Path(grid.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.splitlines() == ["False", "True"]


def test_off_sample_queries_import_no_scipy():
    code = (
        "import sys, numpy as np\n"
        "from lcfield.grid import Axis, Representation, SampledFunction, "
        "evaluate_at, resample\n"
        "ax = Axis(start=-100.0, step=200.0 / 2**12, count=2**12)\n"
        "x = ax.points()\n"
        "f = SampledFunction(axis=ax, values=np.exp(-x**2 / 288),\n"
        "                    representation=Representation.POSITION_CHI, s=1)\n"
        "resample(f, 1.25, 1.0, ax)\n"
        "evaluate_at(f, 3.0123, 0.5)\n"
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])\n")
    src = str(pathlib.Path(grid.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.splitlines() == ["[]"]


def test_evaluate_at_rejects_momentum_function():
    # A k axis is not a chi axis: relabeling it as one gives a wrong number.
    f = unit_gaussian(make_axis(n=256, span=40.0), width=3.0)
    with pytest.raises(ValueError, match="position-chi"):
        grid.evaluate_at(to_momentum(f), 0.5, 0.25)


class TestSampledFunction:
    def test_rejects_length_mismatch(self):
        ax = make_axis(n=8, span=8.0)
        with pytest.raises(ValueError):
            position_fn(ax, np.zeros(7))

    def test_rejects_bad_tags(self):
        ax = make_axis(n=8, span=8.0)
        with pytest.raises(ValueError):
            position_fn(ax, np.zeros(8), s=2)
        with pytest.raises(ValueError):
            position_fn(ax, np.zeros(8), pol="X")

    def test_values_immutable(self):
        f = unit_gaussian(make_axis())
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    def test_keeps_read_only_array_that_owns_its_data(self):
        arr = np.arange(8, dtype=complex)
        arr.flags.writeable = False
        assert position_fn(make_axis(n=8, span=8.0), arr).values is arr

    @pytest.mark.parametrize("make", [
        lambda: np.arange(8, dtype=complex),  # writable
        lambda: np.arange(16, dtype=complex)[::2],  # a view
        lambda: np.arange(8, dtype=float),  # needs a dtype conversion
    ], ids=["writable", "view", "float"])
    def test_copies_anything_else(self, make):
        arr = make()
        f = position_fn(make_axis(n=8, span=8.0), arr)
        before = f.values.copy()
        arr[:] = -1.0
        assert f.values is not arr and not f.values.flags.writeable
        assert f.values.base is None
        np.testing.assert_array_equal(f.values, before)

    def test_copies_read_only_view(self):
        base = np.arange(8, dtype=complex)
        view = base[:]
        view.flags.writeable = False
        f = position_fn(make_axis(n=8, span=8.0), view)
        base[:] = -1.0
        np.testing.assert_array_equal(f.values, np.arange(8))

    def test_on_sample_query_returns_the_samples(self):
        f = unit_gaussian(make_axis(), carrier=1.0)
        out, leak = trig_interpolate(f, f.axis)
        assert out is f.values and leak == 0.0


class TestL2Distance:
    def test_zero_for_equal(self):
        f = unit_gaussian(make_axis())
        assert l2_distance(f, f) == 0.0

    def test_single_sample_delta(self):
        ax = make_axis(n=64, span=4.0)
        v = np.zeros(64, dtype=complex)
        f = position_fn(ax, v)
        v2 = v.copy()
        v2[10] = 0.25
        g = position_fn(ax, v2)
        assert l2_distance(f, g) == pytest.approx(np.sqrt(ax.step) * 0.25)

    def test_gaussian_vs_zero_matches_norm(self):
        ax = make_axis()
        f = unit_gaussian(ax)
        zero = position_fn(ax, np.zeros(ax.count))
        assert l2_distance(f, zero) == pytest.approx(1.0, abs=1e-8)


class TestResample:
    def test_identity(self):
        f = unit_gaussian(make_axis(), width=2.0, carrier=3.0)
        g = resample(f, 1.0, 1.0, f.axis)
        assert np.abs(g.values - f.values).max() < 1e-10

    def test_gaussian_scale_two(self):
        ax = make_axis(n=2048, span=40.0)
        w = 2.0
        f = unit_gaussian(ax, width=w)
        g = resample(f, 2.0, 0.7, ax)
        chi = ax.points()
        expected = 0.7 * (np.pi * w**2) ** -0.25 * np.exp(
            -((2.0 * chi) ** 2) / (2.0 * w**2))
        assert np.abs(g.values - expected).max() < 1e-6

    def test_plane_wave_scale(self):
        ax = make_axis(n=2048, span=80.0)
        chi = ax.points()
        k0 = 2.0
        w = 6.0
        window = np.exp(-chi**2 / (2 * w**2))
        f = position_fn(ax, window * np.exp(1j * k0 * chi))
        a = 1.5
        g = resample(f, a, 1.0, ax)
        expected = np.exp(-((a * chi) ** 2) / (2 * w**2)) * np.exp(1j * a * k0 * chi)
        assert np.abs(g.values - expected).max() < 1e-6

    def test_roundtrip_scale(self):
        ax = make_axis(n=2048, span=80.0)
        f = unit_gaussian(ax, width=4.0, carrier=1.0)
        g = resample(resample(f, 2.0, 1.0, ax), 0.5, 1.0, ax)
        assert np.abs(g.values - f.values).max() < 1e-6

    def test_rejects_zero_scale(self):
        f = unit_gaussian(make_axis())
        for scale in (0.0, -1.0):
            with pytest.raises(ValueError):
                resample(f, scale, 1.0, f.axis)

    @staticmethod
    def carrier_fn(ax, fraction_of_nyquist):
        chi = ax.points()
        k0 = fraction_of_nyquist * np.pi / ax.step
        return position_fn(ax, np.exp(-chi**2 / 32.0) * np.exp(1j * k0 * chi))

    def test_leakage_diagnostic_flags_aggressive_scale(self):
        # Compressing by 8 maps a carrier at 0.2 of Nyquist to 1.6 of it.
        ax = make_axis(n=512, span=40.0)
        g = resample(self.carrier_fn(ax, 0.2), 8.0, 1.0, ax)
        assert g.leakage > 1e-6

    def test_stretch_keeps_carrier_in_band(self):
        # Stretching by 8 maps a carrier at 0.8 of Nyquist to 0.1 of it.
        ax = make_axis(n=512, span=40.0)
        g = resample(self.carrier_fn(ax, 0.8), 0.125, 1.0, ax)
        assert g.leakage == 0

    def test_clean_resample_has_zero_leakage(self):
        f = unit_gaussian(make_axis(), width=2.0)
        assert resample(f, 1.0, 1.0, f.axis).leakage == 0.0

    def test_query_just_off_the_samples_interpolates(self):
        # 1e-6 of a step is far above rounding: no snapping to the samples.
        ax = make_axis(n=1024, span=40.0)
        f = unit_gaussian(ax, width=2.0, carrier=3.0)
        query = Axis(start=ax.start + 1e-6 * ax.step, step=ax.step, count=ax.count)
        out, _ = trig_interpolate(f, query)
        exact = unit_gaussian(query, width=2.0, carrier=3.0).values
        assert np.abs(out - exact).max() < 1e-10
        assert np.abs(out - f.values).max() > 1e-8

    @staticmethod
    def off_grid_gaussian_error(n):
        """max |resampled - exact| / peak for a width-12 Gaussian scaled by 1.25."""
        ax = Axis(start=-100.0, step=200.0 / n, count=n)
        chi = ax.points()
        f = position_fn(ax, np.exp(-chi**2 / (2 * 12.0**2)))
        g = resample(f, 1.25, 1.0, ax)
        exact = np.exp(-(1.25 * chi) ** 2 / (2 * 12.0**2))
        return np.abs(g.values - exact).max() / np.abs(f.values).max()

    def test_off_grid_gaussian_exact_at_2_18(self):
        assert self.off_grid_gaussian_error(2**18) <= 1e-12

    @pytest.mark.parametrize("n", [2**12, 2**14, 2**16])
    def test_off_grid_gaussian_exact_below_2_18(self, n):
        # Exact chirp phases: the error stays at round-off as N grows.
        assert self.off_grid_gaussian_error(n) <= 1e-12

    @pytest.mark.parametrize("rep", list(Representation))
    @pytest.mark.parametrize("s", [1, -1])
    def test_off_sample_query_matches_direct_sum(self, s, rep):
        # The O(n*m) sum the chirp-z evaluates: (1/n) sum_q c_q
        # exp(2*pi*i*q*(x - lo)/span), q = -n/2 ... n/2 - 1, with the c_q
        # from a direct DFT, and 0 outside the sampled span.
        rng = np.random.default_rng([s + 1, list(Representation).index(rep)])
        for _ in range(5):
            n, m = 2 * int(rng.integers(1, 129)), 2 * int(rng.integers(1, 151))
            ax = Axis(start=rng.uniform(-50.0, 50.0), step=rng.uniform(0.05, 2.0),
                      count=n)
            f = SampledFunction(axis=ax, values=rng.normal(size=(n, 2)) @ [1, 1j],
                                representation=rep, s=s)
            query = Axis(start=ax.start + rng.uniform(-0.1, 0.5) * ax.span,
                         step=rng.uniform(0.05, 2.0) * ax.span / m, count=m)
            q = np.arange(-(n // 2), n // 2)
            coeff = np.exp(-2j * np.pi * (np.outer(q, np.arange(n)) % n) / n) @ f.values
            x = query.points()
            want = np.exp(2j * np.pi * np.outer((x - ax.start) / ax.span, q)) @ coeff / n
            want[(x < ax.start) | (x > ax.end)] = 0.0
            got, _ = trig_interpolate(f, query)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_off_sample_query_beyond_exact_phase_range_raises(self):
        # Axis points are computed on demand: nothing of 2**22 is allocated.
        f = unit_gaussian(make_axis(n=8, span=8.0))
        for count in (2**22, 2**21 - 6):
            with pytest.raises(ValueError, match=r"n \+ m <= 2\*\*21"):
                trig_interpolate(f, Axis(start=0.1, step=1e-6, count=count))


class TestBoostField:
    BETAS = (-0.99, -0.9, -0.7, -0.5, -0.3, -0.1, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99)

    @pytest.mark.parametrize("n", [2**12, 2**14, 2**16, 2**18])
    @pytest.mark.parametrize("s", [1, -1])
    @pytest.mark.parametrize("rep", list(Representation))
    def test_onto_own_doppler_grid_returns_samples(self, n, s, rep):
        # Sample i at chi_i is the sample at kappa*chi_i in the boosted
        # frame, so boosting onto the runner's grids (the kappa-scaled chi
        # grid and its conjugate k grid) only rescales the samples: no
        # interpolation round-off, and no end sample lost to the span mask.
        chi_axis = Axis(start=-100.0, step=200.0 / n, count=n)
        on_chi = rep is Representation.POSITION_CHI
        ax = chi_axis if on_chi else chi_axis.conjugate()
        rng = np.random.default_rng(n)
        f = SampledFunction(axis=ax, values=rng.normal(size=(n, 2)) @ [1, 1j],
                            representation=rep, s=s)
        for beta in self.BETAS:
            boost = make_boost(beta)
            k = kappa(s, boost)
            target = Axis(start=chi_axis.start * k, step=chi_axis.step * k, count=n)
            target, scale = (target, xi(s, boost)) if on_chi else (target.conjugate(), k)
            for power in (1, 0.5):
                g = boost_field(f, boost, target, power)
                np.testing.assert_array_equal(g.values, scale ** power * f.values)
                assert g.axis == target and g.leakage == 0.0


class TestCsv:
    def test_roundtrip(self, tmp_path):
        f = unit_gaussian(make_axis(n=64, span=8.0), carrier=1.0)
        vals = f.values.copy()
        vals[0] = complex(-0.0, 5e-324)  # sign of zero and a subnormal
        vals[1] = complex(2.2250738585072014e-308, -0.0)
        f = position_fn(f.axis, vals)
        path = tmp_path / "f.csv"
        write_csv(f, path)
        g = read_csv(path, Representation.POSITION_CHI, s=1)
        assert g.axis == f.axis
        # Compared by bits: assert_array_equal takes -0.0 == 0.0.
        np.testing.assert_array_equal(g.values.view(np.uint64), f.values.view(np.uint64))

    def test_bytes_match_savetxt(self, tmp_path):
        # More rows than one formatting block, and values whose text is special.
        f = unit_gaussian(make_axis(n=10000, span=80.0), carrier=1.0)
        vals = f.values.copy()
        vals[:4] = [complex(-0.0, 5e-324), complex(np.nan, np.inf),
                    complex(-np.inf, 1e300), complex(-1e-300, -0.0)]
        f = position_fn(f.axis, vals)
        write_csv(f, tmp_path / "f.csv")
        np.savetxt(tmp_path / "ref.csv",
                   np.column_stack([f.axis.points(), f.values.real, f.values.imag]),
                   fmt="%.17g", delimiter=",", header="coordinate,re,im",
                   comments="", newline="\r\n")
        assert (tmp_path / "f.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_header_format(self, tmp_path):
        f = unit_gaussian(make_axis(n=8, span=8.0))
        path = tmp_path / "f.csv"
        write_csv(f, path)
        first = path.read_text().splitlines()[0]
        assert first == "coordinate,re,im"

    def test_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.csv"
        for body in ("0.0,1.0\n",  # too few columns
                     "0.0,1.0,0.0\n1.0,1.0\n",  # a short row after a good one
                     "0.0,1.0,0.0\n1.0,x,0.0\n"):  # a non-numeric cell
            path.write_text("coordinate,re,im\n" + body)
            with pytest.raises(ValueError):
                read_csv(path, Representation.POSITION_CHI, s=1)

    @pytest.mark.filterwarnings("error")
    def test_rejects_too_few_samples(self, tmp_path):
        path = tmp_path / "short.csv"
        for body in ("", "0.0,1.0,0.0\n"):
            path.write_text("coordinate,re,im\n" + body)
            with pytest.raises(ValueError, match="at least 2 samples"):
                read_csv(path, Representation.POSITION_CHI, s=1)

    def test_rejects_nonuniform(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("coordinate,re,im\n0.0,1,0\n1.0,1,0\n2.5,1,0\n3.0,1,0\n")
        with pytest.raises(ValueError):
            read_csv(path, Representation.POSITION_CHI, s=1)
