"""Config-driven experiment runner.

Reads a declarative scenario config (flat `dotted.key = value` text),
builds the requested packet/state, applies each boost, executes the named
invariant checks, and writes a deterministic JSON report plus CSV sample
dumps into the scenario's output directory.

Each boost's packet and blip state are built once and shared by the
checks; a per-boost check keeps its worst record over the boosts.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import classical_field as cf
from . import quantum_blip as qb
from . import spectral
from .grid import (Axis, Field, FieldConstants, Representation, SampledFunction,
                   boost_field, l2_distance, read_csv, write_csv)
from .kinematics import kappa, make_boost, simulate_signal_exchange, xi

__all__ = [
    "ScenarioConfig",
    "CheckRecord",
    "ScenarioReport",
    "ConfigError",
    "load_config",
    "run_scenario",
    "ALL_CHECKS",
]

DEFAULT_TOLERANCES = {
    "doppler_centroid": 1e-3,
    "box_energy_conservation": 1e-6,
    "naive_energy_ratio": 1e-6,
    "photon_number_conservation": 1e-6,
    "momentum_path_commutativity": 1e-6,
    "kernel_consistency": 1e-3,
    "parseval": 1e-10,
    "signal_exchange": 1e-12,
    "reciprocity": 1e-12,
}
ALL_CHECKS = tuple(DEFAULT_TOLERANCES)


class ConfigError(Exception):
    """Raised with the full list of validation problems."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass
class ScenarioConfig:
    grid: Axis
    constants: FieldConstants = FieldConstants()
    h_density: float = 1.0
    state_kind: str = "gaussian"
    state_center: float = 0.0
    state_width: float = 1.0
    state_carrier_k: float = 0.0
    state_amplitude: float = 1.0
    state_s: int = 1
    state_pol: str = "H"
    state_file: str | None = None
    boosts: list = field(default_factory=list)
    checks: tuple = ALL_CHECKS
    output_dir: str = "out"
    tolerances: dict = field(default_factory=dict)
    source_text: str = ""

    def tolerance(self, check: str) -> float:
        return self.tolerances.get(check, DEFAULT_TOLERANCES[check])


@dataclass
class CheckRecord:
    name: str
    expected: float | None
    measured: float | None
    abs_error: float | None
    rel_error: float | None
    tolerance: float
    passed: bool
    errored: bool = False
    diagnostics: dict = field(default_factory=dict)


@dataclass
class ScenarioReport:
    meta: dict
    checks: list

    @property
    def all_passed(self) -> bool:
        return all(c.passed and not c.errored for c in self.checks)


def _parse_scalar(text: str):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _parse_config_text(text: str) -> dict:
    """Flat dotted-key parser: `a.b = value`, `#` comments, comma lists."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError([f"line {lineno}: expected 'key = value'"])
        key, value = (part.strip() for part in line.split("=", 1))
        if key in ("boosts", "checks"):
            items = [v.strip() for v in value.split(",") if v.strip()]
            out[key] = [_parse_scalar(v) for v in items]
        else:
            out[key] = _parse_scalar(value)
    return out


def load_config(path) -> ScenarioConfig:
    """Parse and validate a scenario config file.

    All validation problems are aggregated into one ConfigError.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"config file not found: {path}")
    text = path.read_text()
    raw = _parse_config_text(text)
    problems = []

    def take(key, default=None, kind=None):
        if key not in raw:
            if default is None and kind is not None:
                problems.append(f"{key}: missing required key")
                return None
            return default
        val = raw.pop(key)
        if kind is not None and not isinstance(val, kind):
            if kind is float and isinstance(val, int):
                return float(val)
            problems.append(f"{key}: expected {kind.__name__}, got {val!r}")
            return default
        return val

    start = take("grid.start", kind=float)
    step = take("grid.step", kind=float)
    count = take("grid.count", kind=int)
    grid = None
    if None not in (start, step, count):
        if count % 2 != 0:
            problems.append("grid.count: must be even")
        elif step <= 0 or count < 2:
            problems.append("grid: step must be > 0 and count >= 2")
        else:
            grid = Axis(start=start, step=step, count=count)

    c = take("constants.c", 1.0, float)
    hbar = take("constants.hbar", 1.0, float)
    epsilon = take("constants.epsilon", 1.0, float)
    area = take("constants.area", 1.0, float)
    h_density = take("constants.h_density", 1.0, float)
    for name, v in (("constants.c", c), ("constants.hbar", hbar),
                    ("constants.epsilon", epsilon), ("constants.area", area),
                    ("constants.h_density", h_density)):
        if v is not None and v <= 0:
            problems.append(f"{name}: must be positive")

    kind = take("state.kind", "gaussian")
    if kind not in ("gaussian", "gaussian_carrier", "custom"):
        problems.append(f"state.kind: unknown kind {kind!r}")
    center = take("state.center", 0.0, float)
    width = take("state.width", 1.0, float)
    if width is not None and width <= 0:
        problems.append("state.width: must be positive")
    carrier_k = take("state.carrier_k", 0.0, float)
    amplitude = take("state.amplitude", 1.0, float)
    s_flag = take("state.s", 1, int)
    if s_flag not in (1, -1):
        problems.append("state.s: must be +1 or -1")
    pol = take("state.lambda", "H")
    if pol not in ("H", "V"):
        problems.append("state.lambda: must be H or V")
    state_file = take("state.file", "")
    if kind == "custom" and not state_file:
        problems.append("state.file: required for state.kind = custom")

    boosts = take("boosts", [])
    for b in boosts:
        if not isinstance(b, (int, float)) or not abs(b) < 1:
            problems.append(f"boosts: |beta| must be < 1, got {b!r}")
    checks = tuple(take("checks", list(ALL_CHECKS)))
    for name in checks:
        if name not in ALL_CHECKS:
            problems.append(f"checks: unknown check {name!r}")
    output_dir = take("output_dir", "out")

    tolerances = {}
    for key in list(raw):
        if key.startswith("tolerances."):
            name = key.split(".", 1)[1]
            if name not in ALL_CHECKS:
                problems.append(f"{key}: unknown check")
                continue
            tol = raw.pop(key)
            if isinstance(tol, str) or not 0 <= tol < math.inf:
                problems.append(f"{key}: must be a finite number >= 0, got {tol!r}")
            else:
                tolerances[name] = float(tol)
    if raw:
        problems.extend(f"{key}: unknown key" for key in sorted(raw))
    if problems:
        raise ConfigError(problems)
    return ScenarioConfig(
        grid=grid, constants=FieldConstants(c=c, hbar=hbar, epsilon=epsilon, area=area),
        h_density=h_density, state_kind=kind, state_center=center,
        state_width=width, state_carrier_k=carrier_k,
        state_amplitude=amplitude, state_s=s_flag, state_pol=pol,
        state_file=state_file or None, boosts=[float(b) for b in boosts],
        checks=checks, output_dir=output_dir, tolerances=tolerances,
        source_text=text,
    )


def _build_amplitude(config: ScenarioConfig, config_dir: Path) -> SampledFunction:
    if config.state_kind == "custom":
        path = Path(config.state_file)
        if not path.is_absolute():
            path = config_dir / path
        f = read_csv(path, Representation.POSITION_CHI, config.state_s,
                     config.state_pol)
        if f.axis != config.grid:
            raise ValueError("custom sample grid does not match grid spec")
        return f
    chi = config.grid.points()
    vals = config.state_amplitude * np.exp(
        -((chi - config.state_center) ** 2) / (2.0 * config.state_width ** 2))
    vals = vals.astype(complex)
    if config.state_kind == "gaussian_carrier":
        vals *= np.exp(1j * config.state_s * config.state_carrier_k * chi)
    return SampledFunction(axis=config.grid, values=vals,
                           representation=Representation.POSITION_CHI,
                           s=config.state_s, pol=config.state_pol)


def _record(name, expected, measured, tolerance, diagnostics=None) -> CheckRecord:
    """rel_error is the absolute error when `expected` is 0, so a check of a
    quantity that should vanish gates on its absolute error.
    """
    abs_error = abs(measured - expected)
    rel_error = abs_error / abs(expected) if expected != 0 else abs_error
    return CheckRecord(name=name, expected=expected, measured=measured,
                       abs_error=abs_error, rel_error=rel_error,
                       tolerance=tolerance, passed=bool(rel_error <= tolerance),
                       diagnostics=diagnostics or {})


def _errored(name, tolerance, message) -> CheckRecord:
    return CheckRecord(name=name, expected=None, measured=None,
                       abs_error=None, rel_error=None, tolerance=tolerance,
                       passed=False, errored=True,
                       diagnostics={"error": message})


class _Source:
    """A scenario's unboosted packet and blip state, and a memo for the
    boost-independent quantities the checks derive from them.
    """

    def __init__(self, config: ScenarioConfig, amp: SampledFunction, boosts):
        self.config = config
        self.boosts = boosts
        self.s = s = config.state_s
        constants = config.constants
        self.packet = Field(channels={(s, "H"): amp.with_values(amp.values, pol="H")},
                            constants=constants)
        nrm = math.sqrt(qb.photon_number(
            Field(channels={(s, config.state_pol): amp}, constants=constants)))
        blip_amp = amp.with_values(amp.values / nrm) if nrm > 0 else amp
        self.state = Field(channels={(s, config.state_pol): blip_amp},
                           constants=constants)
        self._memo = {}

    def once(self, key: str, compute):
        """`compute()`, evaluated on the first call with `key` only."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]


class _Boosted:
    """One boost's packet and blip state, each built on first use on the
    source grid stretched about chi = 0 by kappa.
    """

    def __init__(self, src: _Source, boost):
        self.src = src
        self.boost = boost
        grid, kap = src.config.grid, kappa(src.s, boost)
        self.target = Axis(start=grid.start * kap, step=grid.step * kap, count=grid.count)

    @cached_property
    def packet(self) -> Field:
        return boost_field(self.src.packet, self.boost, self.target, power=1)

    @cached_property
    def state(self) -> Field:
        return boost_field(self.src.state, self.boost, self.target, power=0.5)


def run_scenario(config: ScenarioConfig, config_dir: Path | None = None) -> ScenarioReport:
    """Execute every requested check and persist the report and CSV dumps."""
    config_dir = Path(config_dir) if config_dir is not None else Path(".")
    out_dir = Path(config.output_dir)
    if not out_dir.is_absolute():
        out_dir = config_dir / out_dir
    out_dir.mkdir(parents=True, exist_ok=True)

    boosts = [make_boost(b) for b in config.boosts] or [make_boost(0.0)]
    try:
        amp = _build_amplitude(config, config_dir)
        write_csv(amp, out_dir / "state_input.csv")
    except Exception as exc:
        checks = [_errored(name, config.tolerance(name), str(exc))
                  for name in config.checks]
        return _finalize(config, checks, out_dir)

    src = _Source(config, amp, boosts)
    del amp  # src holds its own copies of the samples
    worst = {}  # check name -> its worst record so far, or its error
    for boost in boosts:
        boosted = _Boosted(src, boost)
        for name in config.checks:
            done = worst.get(name)
            if done is not None and (done.errored or name in _ONCE_CHECKS):
                continue
            tol = config.tolerance(name)
            try:
                rec = _run_check(name, src, boosted, tol)
            except Exception as exc:
                rec = _errored(name, tol, str(exc))
            if done is None or rec.errored or rec.rel_error > done.rel_error:
                worst[name] = rec
    return _finalize(config, [worst[name] for name in config.checks], out_dir)


def _reciprocity(src: _Source) -> float:
    rng = np.random.default_rng(0)
    worst = 0.0
    for beta in rng.uniform(-0.99, 0.99, size=1000):
        b = make_boost(beta)
        inv = make_boost(-beta)
        for sd in (+1, -1):
            worst = max(worst,
                        abs(xi(sd, b) * xi(sd, inv) - 1.0),
                        abs(kappa(sd, b) * kappa(sd, inv) - 1.0),
                        abs(kappa(sd, b) * xi(sd, b) - 1.0))
    return worst


def _signal_exchange(src: _Source) -> float:
    worst = 0.0
    for boost in src.boosts:
        if boost.beta <= -1.0 + 1e-15:
            continue
        rec = simulate_signal_exchange(boost, t_emit_A=1.0, c=src.config.constants.c)
        worst = max(worst, abs(rec.kappa_measured - kappa(+1, boost)))
    return worst


def _parseval(src: _Source) -> float:
    return spectral.parseval_check(src.packet.channel(src.s)).rel_error


def _doppler_centroid(src: _Source, b: _Boosted):
    base = src.once("centroid", lambda: cf.spectrum(src.packet, src.s).centroid)
    if base is None or base == 0.0:
        raise ValueError("doppler_centroid needs a carrier packet with "
                         "nonzero spectral centroid")
    return xi(src.s, b.boost), cf.spectrum(b.packet, src.s).centroid / base, {}


def _box_energy_conservation(src: _Source, b: _Boosted):
    cfg, kap = src.config, kappa(src.s, b.boost)
    width = 6.0 * cfg.state_width
    box_a = cf.WorldlineBox(a1=cfg.state_center - width, a2=cfg.state_center + width,
                            h=cfg.h_density)
    box_b = cf.WorldlineBox(a1=kap * box_a.a1, a2=kap * box_a.a2,
                            h=cf.transform_density(cfg.h_density, src.s, b.boost))
    e_a = src.once("box_energy", lambda: cf.box_energy(src.packet, box_a))
    return e_a, cf.box_energy(b.packet, box_b), {}


def _naive_energy_ratio(src: _Source, b: _Boosted):
    e_a = src.once("total_energy", lambda: cf.total_energy(src.packet))
    return xi(src.s, b.boost), cf.total_energy(b.packet) / e_a, {}


def _photon_number_conservation(src: _Source, b: _Boosted):
    n_a = src.once("photon_number", lambda: qb.photon_number(src.state))
    return n_a, qb.photon_number(b.state), {}


def _momentum_path_commutativity(src: _Source, b: _Boosted):
    key = (src.s, src.config.state_pol)
    via_chi = qb.to_momentum_state(b.state).channel(*key)
    mom_a = src.once("momentum_state", lambda: qb.to_momentum_state(src.state))
    via_k = boost_field(mom_a, b.boost, via_chi.axis, power=0.5).channel(*key)
    return 0.0, l2_distance(via_chi, via_k), {}


def _kernel_consistency(src: _Source, b: _Boosted):
    if src.config.state_pol != "H":
        raise ValueError("kernel_consistency needs an H-polarized state")
    me_a = src.once("matrix_element", lambda: qb.field_matrix_element(src.state, src.s))
    rep = qb.kernel_consistency_check(me_a, b.state, b.boost)
    return 0.0, rep.rel_l2_discrepancy, {"leakage": rep.leakage}


# Run once per scenario; each returns an error whose expected value is 0.
_ONCE_CHECKS = {
    "reciprocity": _reciprocity,
    "signal_exchange": _signal_exchange,
    "parseval": _parseval,
}

# Run per boost; each returns (expected, measured, extra diagnostics).
_BOOST_CHECKS = {
    "doppler_centroid": _doppler_centroid,
    "box_energy_conservation": _box_energy_conservation,
    "naive_energy_ratio": _naive_energy_ratio,
    "photon_number_conservation": _photon_number_conservation,
    "momentum_path_commutativity": _momentum_path_commutativity,
    "kernel_consistency": _kernel_consistency,
}


def _run_check(name, src: _Source, b: _Boosted, tol) -> CheckRecord:
    if name in _ONCE_CHECKS:
        return _record(name, 0.0, _ONCE_CHECKS[name](src), tol)
    expected, measured, extra = _BOOST_CHECKS[name](src, b)
    return _record(name, expected, measured, tol, {"beta": b.boost.beta, **extra})


def _finalize(config: ScenarioConfig, checks, out_dir: Path) -> ScenarioReport:
    meta = {
        "config_hash": hashlib.sha256(config.source_text.encode()).hexdigest(),
        "grid": {"start": config.grid.start, "step": config.grid.step,
                 "count": config.grid.count},
        "constants": {**asdict(config.constants), "h_density": config.h_density},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    report = ScenarioReport(meta=meta, checks=checks)
    payload = {
        "meta": meta,
        "checks": [{
            "name": c.name,
            "expected": c.expected,
            "measured": c.measured,
            "abs_error": c.abs_error,
            "rel_error": c.rel_error,
            "tolerance": c.tolerance,
            "pass": c.passed,
            "errored": c.errored,
            "diagnostics": c.diagnostics,
        } for c in checks],
    }
    (out_dir / "report.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return report
