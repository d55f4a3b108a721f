import ast
import errno
import gc
import hashlib
import importlib
import json
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from lcfield import grid, scenario, spectral
from lcfield import quantum_blip as qb
from lcfield.cli import main
from lcfield.grid import Axis, FieldConstants, boost_field
from lcfield.kinematics import make_boost, simulate_signal_exchange
from lcfield.scenario import (
    ALL_CHECKS,
    CheckRecord,
    ConfigError,
    DEFAULT_TOLERANCES,
    load_config,
    run_scenario,
)

SMALL_CFG = """\
grid.start = -40.0
grid.step = 0.0390625
grid.count = 2048
state.kind = gaussian_carrier
state.width = 4.0
state.carrier_k = 2.0
boosts = 0.6
checks = {checks}
output_dir = {out}
"""


SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "scenarios"

FLOAT_KEYS = ["grid.start", "grid.step", "constants.c", "constants.hbar",
              "constants.epsilon", "constants.area", "constants.h_density",
              "state.center", "state.width", "state.carrier_k", "state.amplitude"]


@pytest.fixture(scope="module")
def shipped_run(tmp_path_factory):
    """check-all over a copy of the shipped configs, so that the tracked
    reports under scenarios/out stay untouched; returns (exit code, copy).
    """
    work = tmp_path_factory.mktemp("scenarios")
    for cfg in SCENARIOS.glob("*.cfg"):
        shutil.copy(cfg, work)
    return main(["check-all", str(work)]), work


def assert_reports_close(new, old, where="report"):
    """Equal structure, strings and flags; numbers within 1e-12."""
    if isinstance(old, dict):
        assert new.keys() == old.keys(), where
        for key in old:
            assert_reports_close(new[key], old[key], f"{where}.{key}")
    elif isinstance(old, list):
        assert len(new) == len(old), where
        for i, (a, b) in enumerate(zip(new, old)):
            assert_reports_close(a, b, f"{where}[{i}]")
    elif isinstance(old, (int, float)) and not isinstance(old, bool):
        assert math.isclose(new, old, rel_tol=1e-12, abs_tol=1e-12), (where, new, old)
    else:
        assert new == old, where


def write_cfg(tmp_path, checks=", ".join(ALL_CHECKS), out="out", extra=""):
    path = tmp_path / "scn.cfg"
    path.write_text(SMALL_CFG.format(checks=checks, out=out) + extra)
    return path


def fail_parseval(monkeypatch):
    """parseval reading a known error, 1.0, far above its tolerance."""
    monkeypatch.setitem(scenario._ONCE_CHECKS, "parseval", lambda src: 1.0)


# Finite constants whose product eps * c * A overflows.
ZERO_PREFACTOR = "constants.area = 1e200\nconstants.epsilon = 1e200\n"
ZERO_MATRIX_ELEMENT = "kernel_consistency needs a nonzero field matrix element"


class TestLoadConfig:
    def test_full_parse(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path))
        assert cfg.grid == Axis(start=-40.0, step=0.0390625, count=2048)
        assert cfg.state_kind == "gaussian_carrier"
        assert cfg.boosts == [0.6]
        assert cfg.checks == ALL_CHECKS
        assert cfg.constants == FieldConstants()

    def test_defaults(self, tmp_path):
        path = tmp_path / "min.cfg"
        path.write_text("grid.start = -10.0\ngrid.step = 0.078125\n"
                        "grid.count = 256\n")
        cfg = load_config(path)
        assert cfg.state_kind == "gaussian"
        assert cfg.checks == ALL_CHECKS
        assert cfg.boosts == []
        for name in ALL_CHECKS:
            assert cfg.tolerance(name) == DEFAULT_TOLERANCES[name]

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# leading comment\n\ngrid.start = 0.0  # trailing\n"
                        "grid.step = 1.0\ngrid.count = 4\n")
        assert load_config(path).grid.count == 4

    def test_tolerance_override(self, tmp_path):
        path = write_cfg(tmp_path, extra="tolerances.parseval = 1e-6\n")
        cfg = load_config(path)
        assert cfg.tolerance("parseval") == 1e-6
        assert cfg.tolerance("reciprocity") == DEFAULT_TOLERANCES["reciprocity"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read .*nope.cfg"):
            load_config(tmp_path / "nope.cfg")

    def test_aggregated_problems(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("grid.start = 0.0\ngrid.step = 1.0\n"
                        "grid.count = 15\nboosts = 1.2\n"
                        "state.s = 3\nmystery.key = 1\n"
                        "checks = parseval, bogus\n")
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        text = str(exc.value)
        assert "grid.count" in text
        assert "1.2" in text
        assert "state.s" in text
        assert "mystery.key" in text
        assert "bogus" in text

    def test_owner_rules_name_keys(self, tmp_path):
        # FieldConstants and make_boost own these rules; the problems name keys.
        path = write_cfg(tmp_path, extra="constants.area = -1\nboosts = 0.5, -1\n")
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert [p.split(":")[0] for p in exc.value.problems] == [
            "constants.area", "boosts"]

    def test_values_stay_text_until_typed(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, out="5", extra="state.lambda = V\n"))
        assert cfg.output_dir == "5"
        assert cfg.state_pol == "V"
        assert cfg.grid.count == 2048 and isinstance(cfg.grid.start, float)

    def test_custom_requires_file(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("grid.start = 0.0\ngrid.step = 1.0\n"
                        "grid.count = 4\nstate.kind = custom\n")
        with pytest.raises(ConfigError, match="state.file"):
            load_config(path)

    def test_duplicate_check(self, tmp_path):
        path = write_cfg(tmp_path, checks="parseval, reciprocity, parseval")
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert exc.value.problems == ["checks: duplicate check 'parseval'"]

    def test_file_without_custom_kind(self, tmp_path):
        path = write_cfg(tmp_path, extra="state.file = missing.csv\n")
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert exc.value.problems == ["state.file: only read for state.kind = custom"]

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("grid.start -10\n")
        with pytest.raises(ConfigError, match="line 1"):
            load_config(path)


class TestRunScenario:
    def test_all_checks_pass(self, tmp_path):
        path = write_cfg(tmp_path)
        report = run_scenario(load_config(path), config_dir=tmp_path)
        assert report.all_passed
        assert [c.name for c in report.checks] == list(ALL_CHECKS)
        assert (tmp_path / "out" / "report.json").is_file()
        assert (tmp_path / "out" / "state_input.csv").is_file()

    def test_report_json_contents(self, tmp_path):
        path = write_cfg(tmp_path)
        run_scenario(load_config(path), config_dir=tmp_path)
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert set(payload) == {"meta", "checks"}
        assert len(payload["checks"]) == len(ALL_CHECKS)
        by_name = {c["name"]: c for c in payload["checks"]}
        assert by_name["doppler_centroid"]["pass"] is True
        assert by_name["doppler_centroid"]["expected"] == pytest.approx(0.5)
        assert payload["meta"]["grid"]["count"] == 2048
        assert re.fullmatch(r"[0-9a-f]{64}", payload["meta"]["config_hash"])

    def test_deterministic_except_timestamp(self, tmp_path):
        path = write_cfg(tmp_path)
        cfg = load_config(path)
        run_scenario(cfg, config_dir=tmp_path)
        first = (tmp_path / "out" / "report.json").read_text()
        run_scenario(cfg, config_dir=tmp_path)
        second = (tmp_path / "out" / "report.json").read_text()
        strip = lambda text: re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', text)
        assert strip(first) == strip(second)

    def test_report_rejects_non_finite(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path))
        rec = CheckRecord(name="parseval", expected=0.0, measured=math.nan,
                          abs_error=math.nan, rel_error=math.nan,
                          tolerance=1e-10, passed=False)
        with pytest.raises(ValueError):
            scenario._finalize(cfg, [rec], tmp_path)

    @pytest.mark.parametrize("measured", [math.nan, math.inf])
    def test_non_finite_record_errored(self, measured):
        rec = scenario._record("parseval", 0.0, measured, 1e-10)
        assert rec.errored and not rec.passed
        assert rec.diagnostics == {"error": "non-finite result"}

    def test_non_finite_boost_not_dropped(self, tmp_path, monkeypatch):
        # A NaN at the second boost must not lose to the first boost's record.
        def fake(src, b):
            return 1.0, math.nan if b.boost.beta == 0.5 else 1.0, {}
        monkeypatch.setitem(scenario._BOOST_CHECKS, "naive_energy_ratio", fake)
        path = write_cfg(tmp_path, checks="naive_energy_ratio",
                         extra="boosts = 0.3, 0.5\n")
        (rec,) = run_scenario(load_config(path), config_dir=tmp_path).checks
        assert rec.errored and rec.diagnostics == {"error": "non-finite result"}

    def test_one_forward_transform_per_state(self, tmp_path, monkeypatch):
        # Per frame, the source's included: the state's momentum form (to
        # k), shared by the Doppler centroid, momentum-path and kernel
        # checks (and, at the source, parseval), and its matrix element's
        # way back (to chi).  Each frame's spectrum, the transform with its
        # centroid, is taken once.  Each boosted frame boosts one chi
        # function, its state, which the energy checks read too: no packet
        # is boosted (power 1).
        calls, chi_powers, spectra = [], [], []
        signed_dft, boost = spectral._signed_dft, scenario.boost_field
        spectrum = scenario.cf.spectrum

        def record_spectrum(amp):
            spectra.append(amp)
            return spectrum(amp)

        def record_dft(values, *args, **kw):
            calls.append((values, kw["to_k"]))
            return signed_dft(values, *args, **kw)

        def record_boosts(f, *args, **kw):
            if f.representation is grid.Representation.POSITION_CHI:
                chi_powers.append(kw["power"])
            return boost(f, *args, **kw)

        monkeypatch.setattr(spectral, "_signed_dft", record_dft)
        monkeypatch.setattr(scenario, "boost_field", record_boosts)
        monkeypatch.setattr(scenario.cf, "spectrum", record_spectrum)
        path = write_cfg(tmp_path, extra="boosts = -0.5, 0.3, 0.6\n")
        assert run_scenario(load_config(path), config_dir=tmp_path).all_passed
        to_k = [k for _, k in calls]
        assert len(to_k) == 2 * (3 + 1)
        assert to_k.count(True) == 3 + 1 and to_k.count(False) == 3 + 1
        assert len(spectra) == 3 + 1
        assert chi_powers == [0.5] * 3

    @pytest.mark.parametrize("amplitude", ["1e160", "1e308", "1e-160", "1e-300"])
    def test_extreme_amplitude_gives_unit_state(self, tmp_path, amplitude):
        # |amp|**2 overflows (or underflows) unless the state is scaled
        # first; every check, the energies included, reads the scaled state.
        checks = ("photon_number_conservation, momentum_path_commutativity, "
                  "kernel_consistency, doppler_centroid, parseval, "
                  "box_energy_conservation, naive_energy_ratio")
        path = write_cfg(tmp_path, checks=checks, extra=f"state.amplitude = {amplitude}\n")
        extreme = run_scenario(load_config(path), config_dir=tmp_path).checks
        path = write_cfg(tmp_path, checks=checks)
        plain = run_scenario(load_config(path), config_dir=tmp_path).checks
        assert extreme[0].expected == pytest.approx(1.0, rel=1e-14)
        for got, want in zip(extreme, plain):
            assert got.passed and not got.errored, got
            assert got.measured == pytest.approx(want.measured, rel=1e-12, abs=1e-15)
        assert extreme[4].measured <= 1e-14

    @pytest.mark.parametrize("kind", ["gaussian", "custom"])
    def test_zero_amplitude_errored(self, tmp_path, capsys, kind):
        zeros = tmp_path / "zeros.csv"
        zeros.write_text("coordinate,re,im\n" + "".join(
            f"{-40.0 + 0.0390625 * i!r},0,0\n" for i in range(2048)))
        extra = ("state.amplitude = 0\n" if kind == "gaussian"
                 else "state.kind = custom\nstate.file = zeros.csv\n")
        path = write_cfg(tmp_path, extra=extra)
        assert main(["run", str(path)]) == 1
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(payload["checks"]) == len(ALL_CHECKS)
        for rec in payload["checks"]:
            assert rec["errored"] and not rec["pass"]
            assert rec["diagnostics"] == {"error": "input amplitude is zero everywhere"}

    def test_failure_reported_not_raised(self, tmp_path, monkeypatch):
        # A check whose error exceeds its tolerance fails; it is not errored.
        fail_parseval(monkeypatch)
        path = write_cfg(tmp_path, checks="parseval")
        report = run_scenario(load_config(path), config_dir=tmp_path)
        assert not report.all_passed
        rec = report.checks[0]
        assert not rec.passed and not rec.errored
        assert rec.measured == rec.rel_error == 1.0

    def test_errored_check_recorded(self, tmp_path, monkeypatch):
        # A check that raises is recorded as an errored check rather than
        # raised, and the other checks still run.
        def broken(src, b):
            raise ValueError("broken check")

        monkeypatch.setitem(scenario._BOOST_CHECKS, "kernel_consistency", broken)
        path = write_cfg(tmp_path, checks="kernel_consistency, parseval")
        report = run_scenario(load_config(path), config_dir=tmp_path)
        assert not report.all_passed
        rec = {c.name: c for c in report.checks}
        assert rec["kernel_consistency"].errored
        assert rec["kernel_consistency"].diagnostics == {"error": "broken check"}
        assert rec["parseval"].passed

    @pytest.mark.parametrize("extra", [
        pytest.param("state.kind = custom\nstate.file = flat.csv\n", id="constant-input"),
        pytest.param(ZERO_PREFACTOR, id="overflowing-constants")])
    def test_zero_matrix_element_errors_kernel_consistency(self, tmp_path, extra):
        # A constant input's only mode is k = 0, where sqrt|k| is 0; with
        # eps * A overflowing, the kernel's prefactor is -0.0.  Either way
        # the matrix element is zero everywhere, and 0 = 0 would pass.
        (tmp_path / "flat.csv").write_text("coordinate,re,im\n" + "".join(
            f"{-40.0 + 0.0390625 * i!r},1,0\n" for i in range(2048)))
        path = write_cfg(tmp_path, checks="kernel_consistency", extra=extra)
        (rec,) = run_scenario(load_config(path), config_dir=tmp_path).checks
        assert rec.errored and rec.diagnostics == {"error": ZERO_MATRIX_ELEMENT}

    def test_v_polarization_passes(self, tmp_path):
        h = run_scenario(load_config(write_cfg(tmp_path)), config_dir=tmp_path)
        path = write_cfg(tmp_path, extra="state.lambda = V\n")
        v = run_scenario(load_config(path), config_dir=tmp_path)
        assert v.all_passed and v.checks == h.checks

    def test_custom_state_roundtrip(self, tmp_path):
        base = write_cfg(tmp_path, checks="parseval, photon_number_conservation")
        run_scenario(load_config(base), config_dir=tmp_path)
        custom = tmp_path / "custom.cfg"
        custom.write_text(
            "grid.start = -40.0\ngrid.step = 0.0390625\ngrid.count = 2048\n"
            "state.kind = custom\nstate.file = out/state_input.csv\n"
            "boosts = 0.6\nchecks = parseval, photon_number_conservation\n"
            "output_dir = out2\n")
        report = run_scenario(load_config(custom), config_dir=tmp_path)
        assert report.all_passed

    def test_bad_custom_file_errors_all_checks(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("coordinate,re,im\n0.0,1.0\n")
        path = tmp_path / "scn.cfg"
        path.write_text("grid.start = -40.0\ngrid.step = 0.0390625\n"
                        "grid.count = 2048\nstate.kind = custom\n"
                        "state.file = bad.csv\nchecks = parseval\n")
        report = run_scenario(load_config(path), config_dir=tmp_path)
        assert not report.all_passed
        assert all(c.errored for c in report.checks)

    def test_left_mover(self, tmp_path):
        path = tmp_path / "scn.cfg"
        path.write_text("grid.start = -40.0\ngrid.step = 0.0390625\n"
                        "grid.count = 2048\nstate.kind = gaussian_carrier\n"
                        "state.width = 4.0\nstate.carrier_k = 2.0\n"
                        "state.s = -1\nboosts = -0.3\n"
                        "checks = doppler_centroid, photon_number_conservation\n")
        report = run_scenario(load_config(path), config_dir=tmp_path)
        assert report.all_passed


def write_packet(path, amplitude=1.0):
    """SMALL_CFG's grid and a width-4 Gaussian with carrier 2, as the
    `coordinate,re,im` rows np.savetxt writes at 17 significant digits.
    """
    chi = -40.0 + 0.0390625 * np.arange(2048)
    vals = amplitude * np.exp(-chi ** 2 / 32.0 + 2j * chi)
    np.savetxt(path, np.column_stack([chi, vals.real, vals.imag]), fmt="%.17g",
               delimiter=",", header="coordinate,re,im", comments="")


CUSTOM_INPUT = "state.kind = custom\nstate.file = packet.csv\n"


class TestStateInput:
    """state_input.csv holds the amplitude the checks ran on: a custom
    input's own bytes, or a generated amplitude written by write_csv.
    """

    @staticmethod
    def count_write_csv(monkeypatch):
        calls = []
        write_csv = scenario.write_csv
        monkeypatch.setattr(scenario, "write_csv",
                            lambda f, path: calls.append(path) or write_csv(f, path))
        return calls

    @pytest.mark.parametrize("writer", ["savetxt_lf", "write_csv_crlf"])
    def test_custom_input_bytes_kept(self, tmp_path, monkeypatch, capsys, writer):
        packet = tmp_path / "packet.csv"
        write_packet(packet)
        if writer == "write_csv_crlf":
            f = grid.read_csv(packet, grid.Representation.POSITION_CHI, s=1)
            grid.write_csv(f, packet)
        calls = self.count_write_csv(monkeypatch)
        assert main(["run", str(write_cfg(tmp_path, extra=CUSTOM_INPUT))]) == 0
        assert (tmp_path / "out" / "state_input.csv").read_bytes() == packet.read_bytes()
        assert calls == []

    def test_generated_input_written_once(self, tmp_path, monkeypatch, capsys):
        calls = self.count_write_csv(monkeypatch)
        assert main(["run", str(write_cfg(tmp_path))]) == 0
        assert calls == [tmp_path / "out" / "state_input.csv.tmp"]

    @staticmethod
    def reject(tmp_path, why):
        """Turn a passing config's input into one the run rejects; returns
        the config's extra lines and the message every check errors with.
        """
        packet = tmp_path / "packet.csv"
        if why == "zero generated":
            return "state.amplitude = 0.0\n", "input amplitude is zero everywhere"
        if why == "zero":
            write_packet(packet, amplitude=0.0)
            message = "input amplitude is zero everywhere"
        elif why == "missing":
            packet.unlink()
            message = "No such file"
        elif why in ("nan", "inf"):
            lines = packet.read_text().splitlines(keepends=True)
            chi = lines[1000].split(",")[0]
            lines[1000] = f"{chi},{why},0\n"
            packet.write_text("".join(lines))
            message = "input amplitude is not finite"
        elif why == "unparsable":
            packet.write_text("coordinate,re,im\n0.0,1.0\n")
            message = "3 columns"
        else:  # two samples more than the config's grid
            with open(packet, "a") as fh:
                fh.write("40,0,0\n40.0390625,0,0\n")
            message = "custom sample grid does not match grid spec"
        return CUSTOM_INPUT, message

    @pytest.mark.parametrize("why", ["zero generated", "zero", "nan", "inf", "missing",
                                     "unparsable", "mismatched"])
    def test_rejected_input_leaves_no_state_input(self, tmp_path, capsys, why):
        write_packet(tmp_path / "packet.csv")
        extra = "" if why == "zero generated" else CUSTOM_INPUT
        assert main(["run", str(write_cfg(tmp_path, extra=extra))]) == 0
        assert (tmp_path / "out" / "state_input.csv").is_file()
        extra, message = self.reject(tmp_path, why)
        assert main(["run", str(write_cfg(tmp_path, extra=extra))]) == 1
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["report.json"]
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(payload["checks"]) == len(ALL_CHECKS)
        for rec in payload["checks"]:
            assert rec["errored"] and message in rec["diagnostics"]["error"]

    @pytest.mark.parametrize("amplitude", [1.0, 0.0])
    def test_own_state_input_untouched(self, tmp_path, capsys, amplitude):
        own = tmp_path / "out" / "state_input.csv"
        own.parent.mkdir()
        write_packet(own, amplitude=amplitude)
        before = own.read_bytes(), own.stat().st_mtime_ns
        path = write_cfg(tmp_path, extra="state.kind = custom\n"
                                          "state.file = out/state_input.csv\n")
        assert main(["run", str(path)]) == (0 if amplitude else 1)
        assert (own.read_bytes(), own.stat().st_mtime_ns) == before

    GRID_800 = "grid.start = -40\ngrid.step = 0.1\ngrid.count = 800\n"

    def test_non_dyadic_custom_roundtrip(self, tmp_path, capsys):
        assert main(["run", str(write_cfg(tmp_path, extra=self.GRID_800))]) == 0
        extra = (self.GRID_800 + "state.kind = custom\n"
                 "state.file = out/state_input.csv\noutput_dir = out2\n")
        assert main(["run", str(write_cfg(tmp_path, extra=extra))]) == 0
        assert ((tmp_path / "out2" / "state_input.csv").read_bytes()
                == (tmp_path / "out" / "state_input.csv").read_bytes())

    def test_custom_step_off_by_1e_9_errors(self, tmp_path, capsys):
        chi = -40.0 + 0.1 * (1 + 1e-9) * np.arange(800)
        np.savetxt(tmp_path / "packet.csv",
                   np.column_stack([chi, np.exp(-chi ** 2 / 32.0), 0.0 * chi]),
                   fmt="%.17g", delimiter=",", header="coordinate,re,im", comments="")
        path = write_cfg(tmp_path, extra=self.GRID_800 + CUSTOM_INPUT)
        assert main(["run", str(path)]) == 1
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert {rec["diagnostics"]["error"] for rec in payload["checks"]} == {
            "custom sample grid does not match grid spec"}


def with_power(wrong: float, right: float):
    """boost_field, but with amplitude power `wrong` where `right` is due."""
    def patched(field, boost, target, power):
        return boost_field(field, boost, target, wrong if power == right else power)
    return patched


def chi_scaled_by_kappa(field, boost, target, power):
    """boost_field, but with kappa in place of xi as the chi channel's scale:
    xi at -beta is kappa at beta.
    """
    if field.representation is grid.Representation.POSITION_CHI:
        boost = make_boost(-boost.beta)
    return boost_field(field, boost, target, power)


def k_scaled_by_xi(field, boost, target, power):
    """boost_field, but with xi in place of kappa as the k channel's scale."""
    if field.representation is grid.Representation.MOMENTUM_K:
        boost = make_boost(-boost.beta)
    return boost_field(field, boost, target, power)


def linear_multiplier(k_axis, constants, kernel_multiplier=qb.kernel_multiplier):
    """The kernel's Fourier multiplier with |k| in place of sqrt|k|."""
    return kernel_multiplier(k_axis, constants) * np.sqrt(np.abs(k_axis.points()))


def momentum_without_step(f, to_momentum=spectral.to_momentum):
    """spectral.to_momentum without its grid-step factor."""
    ft = to_momentum(f)
    return ft.with_values(grid.frozen(ft.values / f.axis.step))


class TestNegativeControls:
    """Each check fails when the law it checks is broken, for a right-mover
    at beta and a left-mover at -beta, its mirror image, so that xi = 0.577
    in both.  At s = -1 and beta = +0.5, xi is 1.73, and the Doppler
    control, which measures 1/xi, reads a relative error of 1 - 1/xi**2 =
    0.67, below its 1e3 x margin; at xi = 0.577 it reads 2.0.
    """

    CHECKS = ("doppler_centroid, box_energy_conservation, naive_energy_ratio, "
              "photon_number_conservation, momentum_path_commutativity, "
              "kernel_consistency, parseval, reciprocity")
    # A check's boost, where it is not s * 0.5 (whose kappa is not exact):
    # signal_exchange reads kappa(+1) alone, whatever s, and runs next to
    # beta = -1, where kappa is 1.67e-8.
    BETA = {"signal_exchange": -0.9999999999999995}
    # A multiplier |k|**p scales the boosted matrix element by xi**(p - 1/2)
    # and keeps its shape, so the |k| control reads |1 - xi**-0.5| = 0.316
    # at xi = 0.577, 316 x its tolerance: set by the boost, not by p.
    MARGIN = {"kernel_consistency": 1e2}

    @classmethod
    def records(cls, tmp_path, s, checks=CHECKS):
        # The later `boosts` line wins.
        beta = cls.BETA.get(checks, s * 0.5)
        path = write_cfg(tmp_path, checks=checks,
                         extra=f"boosts = {beta!r}\nstate.s = {s}\n")
        report = run_scenario(load_config(path), config_dir=tmp_path)
        return {c.name: c for c in report.checks}

    def test_control_passes(self, tmp_path):
        for s in (1, -1):
            assert all(c.passed for c in self.records(tmp_path, s).values()), s
            assert self.records(tmp_path, s, "signal_exchange")["signal_exchange"].passed, s

    @pytest.mark.parametrize("check, module, attr, fake", [
        ("doppler_centroid", scenario, "boost_field", chi_scaled_by_kappa),
        ("photon_number_conservation", scenario, "boost_field", with_power(1, 0.5)),
        ("naive_energy_ratio", scenario, "boost_field", with_power(1, 0.5)),
        ("box_energy_conservation", scenario.cf, "transform_density",
         lambda h_A, s, boost: h_A),
        # The observer receding at beta taken as approaching: xi for kappa.
        ("signal_exchange", scenario, "simulate_signal_exchange",
         lambda boost, **kw: simulate_signal_exchange(make_boost(-boost.beta), **kw)),
        ("momentum_path_commutativity", scenario, "boost_field", k_scaled_by_xi),
        ("kernel_consistency", qb, "kernel_multiplier", linear_multiplier),
        ("parseval", spectral, "to_momentum", momentum_without_step),
        ("reciprocity", scenario, "kappa",
         lambda s, boost: boost.gamma * (1.0 + s * boost.beta / 2)),
    ])
    def test_broken_law_fails(self, tmp_path, monkeypatch, check, module, attr, fake):
        monkeypatch.setattr(module, attr, fake)
        for s in (1, -1):
            rec = self.records(tmp_path, s, check)[check]
            assert not rec.passed and not rec.errored, s
            assert rec.rel_error > self.MARGIN.get(check, 1e3) * rec.tolerance, s


def test_transform_checks_exact_at_2_18(tmp_path):
    # The benchmark's sweep packet at N = 2^18 with 19 boosts.  With the
    # phases of the chi <-> k transforms reduced exactly, neither check
    # loses accuracy as N grows (they read 8.6e-11 and 1.4e-9 when the
    # phases k*chi were formed in floating point).
    n = 2 ** 18
    path = tmp_path / "big.cfg"
    path.write_text(
        f"grid.start = -100.0\ngrid.step = {200.0 / n!r}\ngrid.count = {n}\n"
        "state.kind = gaussian_carrier\nstate.width = 12.0\n"
        "state.carrier_k = 0.6283185307179586\n"
        f"boosts = {', '.join(str(round(0.1 * i, 1)) for i in range(-9, 10))}\n"
        "checks = momentum_path_commutativity, kernel_consistency\n")
    momentum, kernel = run_scenario(load_config(path), config_dir=tmp_path).checks
    assert momentum.rel_error <= 1e-14
    assert kernel.rel_error <= 1e-11


@pytest.mark.parametrize("checks", [
    pytest.param(ALL_CHECKS, id="default"),
    pytest.param(("kernel_consistency",)
                 + tuple(c for c in ALL_CHECKS if c != "kernel_consistency"),
                 id="kernel_consistency-first")])
def test_check_memory_at_2_18(tmp_path, checks):
    # One boost, all nine checks.  The transforms allocate only their
    # results, and the boosted packet and matrix element are freed after
    # their last check: the traced peak reads 36.4 MiB (36.0 MiB with
    # kernel_consistency first).  It read 42.4 MiB when each transform built an n-long phase vector and
    # copied its input, the matrix element kept its sqrt|k| multiplier
    # through the transform, and the boosted packet stayed cached; and 38.9
    # MiB, kernel_consistency first, when the boosted matrix element was
    # kept.  With the cyclic collector off, a run leaves no sampled function
    # behind: a reference cycle (a source frame that is its own source)
    # would keep its arrays until the next collection.
    n = 2 ** 18
    path = tmp_path / "big.cfg"
    path.write_text(
        f"grid.start = -100.0\ngrid.step = {200.0 / n!r}\ngrid.count = {n}\n"
        "state.kind = gaussian_carrier\nstate.width = 12.0\n"
        "state.carrier_k = 0.6283185307179586\nboosts = 0.3\n"
        f"checks = {', '.join(checks)}\n")
    config = load_config(path)
    count = lambda: sum(isinstance(obj, grid.SampledFunction) for obj in gc.get_objects())
    before = count()
    gc.disable()
    tracemalloc.start()
    try:
        report = run_scenario(config, config_dir=tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
        left = count()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert report.all_passed and len(report.checks) == len(ALL_CHECKS)
    assert peak <= 37 * 2**20
    assert left <= before


def test_checks_allocate_one_array_past_their_boost(tmp_path, monkeypatch):
    # kernel_consistency_check and the momentum-path check each boost one
    # n-long function and drop it once compared.  The difference is formed
    # in that boosted array, so from the boost's return on, the boosted
    # array is the only n-long one the check holds; a new difference array
    # made it two.  What the boost allocates inside is the resampler's.
    n = 2 ** 16
    path = tmp_path / "n16.cfg"
    path.write_text(
        f"grid.start = -100.0\ngrid.step = {200.0 / n!r}\ngrid.count = {n}\n"
        "state.kind = gaussian_carrier\nstate.width = 12.0\n"
        "state.carrier_k = 0.6283185307179586\nboosts = 0.6\n")
    config = load_config(path)
    boost = make_boost(0.6)
    src = scenario._Source(config, scenario._build_amplitude(config, tmp_path / "in.csv"),
                           [boost])
    boosted = scenario._Frame(src, boost)
    me_A, me_B = src.matrix_element, boosted.matrix_element
    given = [me_A, me_B, src.spectrum[0], boosted.spectrum[0]]
    kept = [f.values.copy() for f in given]

    def peak_past_boost(module, check, *args):
        real = module.boost_field

        def boost_then_reset_peak(*a, **kw):
            out = real(*a, **kw)
            tracemalloc.reset_peak()
            return out

        monkeypatch.setattr(module, "boost_field", boost_then_reset_peak)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            check(*args)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
            monkeypatch.undo()

    array = 16 * n
    assert peak_past_boost(qb, qb.kernel_consistency_check, me_A, me_B, boost) < 1.25 * array
    assert peak_past_boost(scenario, scenario._momentum_path_commutativity,
                           src, boosted) < 1.25 * array
    for f, values in zip(given, kept):  # only the boosted arrays were written
        assert not f.values.flags.writeable
        assert f.values.tobytes() == values.tobytes()


def test_kinematic_checks_round_off_on_sweep_boosts(tmp_path):
    # These two checks set the benchmark's worst_err_over_tol on the
    # 19-boost sweep.  The pulse times t_A/(1 - beta) and t_A*gamma read
    # 3.85e-16 relative to kappa, at beta = +-0.5 (6.66e-16 absolute).
    boosts = ", ".join(str(round(0.1 * i, 1)) for i in range(-9, 10))
    path = write_cfg(tmp_path, checks="signal_exchange, reciprocity",
                     extra=f"boosts = {boosts}\n")
    exchange, reciprocity = run_scenario(load_config(path), config_dir=tmp_path).checks
    assert exchange.rel_error <= 3.9e-16
    assert reciprocity.rel_error <= 4.5e-16


@pytest.mark.parametrize("beta", [0.99999999, 0.9999999999999995])
def test_signal_exchange_error_is_relative(tmp_path, beta):
    # kappa is 1.4e4 and 1.2e8 here, so one rounding of the reception time
    # is 1.8e-12 and 7.5e-9 in absolute terms, past the 1e-12 tolerance;
    # relative to kappa it is 1.3e-16 and 1.2e-16.
    path = write_cfg(tmp_path, checks="signal_exchange", extra=f"boosts = {beta!r}\n")
    (exchange,) = run_scenario(load_config(path), config_dir=tmp_path).checks
    assert exchange.passed
    assert exchange.rel_error <= np.finfo(float).eps


def test_runner_imports_no_scipy_signal_or_integrate(tmp_path):
    # Each costs a large part of a second to import, and lcfield uses
    # neither (only the finite-part test oracle uses scipy.integrate).
    path = write_cfg(tmp_path, extra="boosts = 0.5\n")
    code = (
        "import sys, lcfield.cli, lcfield.scenario as sc\n"
        "names = ('scipy.signal', 'scipy.integrate')\n"
        "heavy = lambda: [m for m in names if m in sys.modules]\n"
        "print(heavy())\n"
        f"sc.run_scenario(sc.load_config({str(path)!r}), config_dir={str(tmp_path)!r})\n"
        "print(heavy())\n")
    src = str(pathlib.Path(scenario.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.splitlines() == ["[]", "[]"]


def test_runner_loads_no_numpy_random_or_openssl(tmp_path):
    # numpy.random and OpenSSL (loaded by importing hashlib) each cost
    # megabytes of resident memory and milliseconds of start-up.  Only what
    # lcfield adds beyond `import numpy` counts.
    path = write_cfg(tmp_path, checks=", ".join(ALL_CHECKS))
    code = (
        "import sys, json, numpy\n"
        "before = set(sys.modules)\n"
        "import lcfield.cli\n"
        f"lcfield.cli.main(['run', {str(path)!r}])\n"
        "print([m for m in ('numpy.random', '_hashlib') if m in set(sys.modules) - before])\n"
        f"print(json.load(open({str(tmp_path / 'out' / 'report.json')!r}))"
        "['meta']['config_hash'])\n")
    src = str(pathlib.Path(scenario.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.splitlines()[-2:] == [
        "[]", hashlib.sha256(path.read_text().encode()).hexdigest()]


def test_exports_exist_and_no_scipy_integrate_import():
    # A deleted name cannot stay in an __all__, and no source file imports
    # scipy (the quadrature oracle in tests/finite_part.py is its only user).
    package = pathlib.Path(scenario.__file__).parent
    for path in sorted(package.glob("*.py")):
        name = "lcfield" if path.stem == "__init__" else f"lcfield.{path.stem}"
        module = importlib.import_module(name)
        stale = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert stale == [], (name, stale)
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported |= {node.module} | {f"{node.module}.{alias.name}"
                                             for alias in node.names}
        assert not any(m.split(".")[0] == "scipy" for m in imported), name


class TestCli:
    def test_run_pass_exit_zero(self, tmp_path, capsys):
        path = write_cfg(tmp_path, checks="parseval, reciprocity")
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "parseval" in out and "reciprocity" in out

    def test_run_failure_exit_one(self, tmp_path, capsys, monkeypatch):
        fail_parseval(monkeypatch)
        path = write_cfg(tmp_path, checks="parseval")
        assert main(["run", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_missing_config_exit_two(self, tmp_path, capsys):
        path = tmp_path / "nope.cfg"
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"error: cannot read {path}: {os.strerror(errno.ENOENT)}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["abc", "nan", "inf", "-1e-3"])
    def test_bad_tolerance_exit_two(self, tmp_path, capsys, value):
        path = write_cfg(tmp_path, checks="parseval",
                         extra=f"tolerances.parseval = {value}\n")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "tolerances.parseval" in err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("line", [f"{key} = {value}" for key in FLOAT_KEYS
                                      for value in ("nan", "inf")] + ["boosts = abc"])
    def test_bad_config_exit_two(self, tmp_path, capsys, line):
        path = write_cfg(tmp_path, checks="parseval", extra=line + "\n")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and line.split(" = ")[0] in err
        assert not (tmp_path / "out").exists()

    def test_non_utf8_config_exit_two(self, tmp_path, capsys):
        path = write_cfg(tmp_path, checks="parseval")
        path.write_bytes(path.read_bytes() + b"# caf\xe9\n")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and str(path) in err and "UTF-8" in err
        assert not (tmp_path / "out").exists()

    @staticmethod
    def deny_reading(monkeypatch, denied):
        """Path.read_text raising PermissionError for the file `denied`
        (chmod does not stop root from reading it).
        """
        read_text = pathlib.Path.read_text

        def fake(self, *args, **kwargs):
            if self == denied:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(self))
            return read_text(self, *args, **kwargs)
        monkeypatch.setattr(pathlib.Path, "read_text", fake)

    def test_unreadable_config_exit_two(self, tmp_path, capsys, monkeypatch):
        path = write_cfg(tmp_path, checks="parseval")
        self.deny_reading(monkeypatch, path)
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and str(path) in err and "denied" in err
        assert not (tmp_path / "out").exists()

    def test_uncreatable_output_dir_exit_two(self, tmp_path, capsys):
        (tmp_path / "blocker").write_text("a file, not a directory\n")
        path = write_cfg(tmp_path, checks="parseval", out="blocker/sub")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and str(tmp_path / "blocker" / "sub") in err

    def test_check_all_reports_bad_configs_and_runs_the_rest(self, tmp_path, capsys,
                                                             monkeypatch):
        good = write_cfg(tmp_path, checks="parseval")
        (tmp_path / "latin1.cfg").write_bytes(good.read_bytes() + b"# caf\xe9\n")
        (tmp_path / "blocker").write_text("a file, not a directory\n")
        (tmp_path / "blocked.cfg").write_text(
            good.read_text().replace("output_dir = out", "output_dir = blocker/sub"))
        (tmp_path / "denied.cfg").write_text(good.read_text())
        self.deny_reading(monkeypatch, tmp_path / "denied.cfg")
        assert main(["check-all", str(tmp_path)]) == 1
        rows = {line.split()[0]: line.split()[1]
                for line in capsys.readouterr().out.splitlines()}
        assert rows == {"blocked": "CONFIG-ERROR", "denied": "CONFIG-ERROR",
                        "latin1": "CONFIG-ERROR", "scn": "PASS"}
        assert (tmp_path / "out" / "report.json").is_file()

    @pytest.mark.parametrize("name,extra", [
        pytest.param("report.json", "", id="run-report.json"),
        pytest.param("state_input.csv", "", id="run-state_input.csv"),
        pytest.param("state_input.csv", CUSTOM_INPUT, id="run-state_input.csv-custom")])
    def test_unwritable_output_file_exit_two(self, tmp_path, capsys, name, extra):
        (tmp_path / "out" / name).mkdir(parents=True)
        write_packet(tmp_path / "packet.csv")
        path = write_cfg(tmp_path, checks="parseval", extra=extra)
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert f"cannot write {tmp_path / 'out' / name}" in err
        assert not (tmp_path / "out" / "report.json").is_file()

    def test_state_input_failing_part_way_is_removed(self, tmp_path, capsys, monkeypatch):
        path = write_cfg(tmp_path, checks="parseval")
        assert main(["run", str(path)]) == 0
        artifact = tmp_path / "out" / "state_input.csv"

        def disk_full_after_header(f, path):  # a disk that fills part-way
            with open(path, "wb") as fh:
                fh.write(b"coordinate,re,im\r\n")
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(scenario, "write_csv", disk_full_after_header)
        capsys.readouterr()
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"error: cannot write {artifact}: {os.strerror(errno.ENOSPC)}"]
        assert not artifact.exists()
        assert not (tmp_path / "out" / "report.json").exists()

    def test_report_failing_part_way_is_removed(self, tmp_path, capsys, monkeypatch):
        path = write_cfg(tmp_path, checks="parseval")
        report = tmp_path / "out" / "report.json"

        def disk_full_after_100_bytes(self, text):
            with open(self, "w") as fh:
                fh.write(text[:100])
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(pathlib.Path, "write_text", disk_full_after_100_bytes)
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"error: cannot write {report}: {os.strerror(errno.ENOSPC)}"]
        assert not report.exists()
        assert sorted(p.name for p in report.parent.iterdir()) == ["state_input.csv"]

    def test_interrupted_state_input_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        path = write_cfg(tmp_path, checks="parseval")
        assert main(["run", str(path)]) == 0

        def interrupted_after_header(f, path):  # Ctrl-C part-way through
            with open(path, "wb") as fh:
                fh.write(b"coordinate,re,im\r\n")
                raise KeyboardInterrupt

        monkeypatch.setattr(scenario, "write_csv", interrupted_after_header)
        with pytest.raises(KeyboardInterrupt):
            main(["run", str(path)])
        assert list((tmp_path / "out").iterdir()) == []

    def test_check_all_reports_unwritable_output_files(self, tmp_path, capsys):
        good = write_cfg(tmp_path, checks="parseval")
        for name in ("report.json", "state_input.csv"):
            stem = name.split(".")[0]
            (tmp_path / stem / name).mkdir(parents=True)
            (tmp_path / f"{stem}.cfg").write_text(
                good.read_text().replace("output_dir = out", f"output_dir = {stem}"))
        assert main(["check-all", str(tmp_path)]) == 1
        rows = {line.split()[0]: line.split()[1]
                for line in capsys.readouterr().out.splitlines()}
        assert rows == {"report": "CONFIG-ERROR", "state_input": "CONFIG-ERROR",
                        "scn": "PASS"}
        assert (tmp_path / "out" / "report.json").is_file()

    def test_check_all_keeps_the_first_report_in_a_shared_output_dir(self, tmp_path,
                                                                     capsys, monkeypatch):
        # b.cfg names a.cfg's output directory by another path: run, it
        # would overwrite the report of a.cfg's failure.  A symlink loop is
        # no output directory either.
        fail_parseval(monkeypatch)
        (tmp_path / "loop").symlink_to("loop")
        for name, checks, out in [("a", "parseval", "out"),
                                  ("b", "reciprocity", "./sub/../out"),
                                  ("c", "reciprocity", "loop/sub")]:
            write_cfg(tmp_path, checks=checks, out=out).rename(tmp_path / f"{name}.cfg")
        assert main(["check-all", str(tmp_path)]) == 1
        rows = [line.split(None, 2) for line in capsys.readouterr().out.splitlines()]
        assert rows[0][:2] == ["a", "FAIL"]
        assert rows[1] == ["b", "CONFIG-ERROR", "output_dir: already used by a.cfg"]
        assert rows[2][:2] == ["c", "CONFIG-ERROR"] and "loop" in rows[2][2]
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [c["name"] for c in report["checks"]] == ["parseval"]

    @staticmethod
    def block_state_input_after_a_pass(tmp_path):
        path = write_cfg(tmp_path, checks="parseval")
        assert main(["run", str(path)]) == 0
        (tmp_path / "out" / "state_input.csv").unlink()
        (tmp_path / "out" / "state_input.csv").mkdir()
        return path

    def test_stopped_run_leaves_no_stale_report(self, tmp_path, capsys):
        path = self.block_state_input_after_a_pass(tmp_path)
        assert main(["run", str(path)]) == 2
        assert not (tmp_path / "out" / "report.json").exists()

    def test_stopped_check_all_leaves_no_stale_report(self, tmp_path, capsys):
        self.block_state_input_after_a_pass(tmp_path)
        capsys.readouterr()
        assert main(["check-all", str(tmp_path)]) == 1
        rows = {line.split()[0]: line.split()[1]
                for line in capsys.readouterr().out.splitlines()}
        assert rows == {"scn": "CONFIG-ERROR"}
        assert not (tmp_path / "out" / "report.json").exists()

    def test_numeric_output_dir_is_a_path(self, tmp_path, capsys):
        path = write_cfg(tmp_path, checks="parseval", out="5")
        assert main(["run", str(path)]) == 0
        assert (tmp_path / "5" / "report.json").is_file()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_results_errored_and_reported(self, tmp_path, capsys):
        # Finite constants whose product eps * A overflows: the energies are
        # inf (and inf - inf is NaN), and the kernel's prefactor
        # -sqrt(hbar / (4 pi eps c A)) is -0.0.
        path = write_cfg(tmp_path, extra=ZERO_PREFACTOR)
        assert main(["run", str(path)]) == 1
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        errored = {c["name"]: c["diagnostics"] for c in payload["checks"] if c["errored"]}
        assert errored == {
            "box_energy_conservation": {"error": "non-finite result"},
            "naive_energy_ratio": {"error": "non-finite result"},
            "kernel_consistency": {"error": ZERO_MATRIX_ELEMENT}}

    def test_empty_checks_exit_two(self, tmp_path, capsys):
        path = write_cfg(tmp_path, checks="")
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: checks: must name at least one check"]
        assert not (tmp_path / "out").exists()

    def test_invalid_config_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("grid.start = 0.0\ngrid.step = 1.0\ngrid.count = 3\n")
        assert main(["run", str(path)]) == 2
        assert "grid.count" in capsys.readouterr().err

    def test_check_all(self, tmp_path, capsys):
        write_cfg(tmp_path, checks="parseval, signal_exchange")
        other = tmp_path / "second.cfg"
        other.write_text("grid.start = -10.0\ngrid.step = 0.078125\n"
                         "grid.count = 256\nchecks = reciprocity\n"
                         "output_dir = out_second\n")
        assert main(["check-all", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "scn" in out and "second" in out

    def test_check_all_propagates_failure(self, tmp_path, capsys, monkeypatch):
        fail_parseval(monkeypatch)
        write_cfg(tmp_path, checks="parseval")
        assert main(["check-all", str(tmp_path)]) == 1

    def test_check_all_empty_dir(self, tmp_path, capsys):
        assert main(["check-all", str(tmp_path)]) == 2

    def test_readme_lists_every_subcommand(self, capsys):
        readme = (SCENARIOS.parent / "README.md").read_text()
        block = readme.split("## Command line")[1].split("```")[1]
        documented = {line.split()[1] for line in block.splitlines()
                      if line.startswith("lcfield ")}
        with pytest.raises(SystemExit, match="^0$"):
            main(["--help"])
        choices = re.search(r"\{([a-z,-]+)\}", capsys.readouterr().out).group(1)
        assert documented == set(choices.split(","))

    def test_export_kernel_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit, match="^2$"):
            main(["export-kernel", str(write_cfg(tmp_path))])

    def test_version(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out.strip()

    def test_shipped_scenarios_pass(self, shipped_run):
        assert shipped_run[0] == 0

    def test_shipped_reports_match_golden(self, shipped_run):
        golden = sorted(SCENARIOS.glob("out/*/report.json"))
        assert len(golden) == 4
        for path in golden:
            old = json.loads(path.read_text())
            new = json.loads((shipped_run[1] / path.relative_to(SCENARIOS)).read_text())
            del old["meta"]["timestamp"], new["meta"]["timestamp"]
            assert_reports_close(new, old, str(path.relative_to(SCENARIOS)))
