"""Config-driven experiment runner.

Reads a declarative scenario config (flat `dotted.key = value` text),
builds the packet and blip state (one sampled function each), applies
each boost, runs the named invariant checks, and writes a JSON report
and the input amplitude, `state_input.csv`, into the scenario's output
directory.  A custom input's `state_input.csv` is the input file's own
bytes, copied and then parsed, and its axis must match the config's grid
(`Axis.matches`); a generated amplitude is written by `write_csv`.  A
rejected input leaves no `state_input.csv`.

Each boost's packet and state are built once and shared by the checks;
a per-boost check keeps its worst record over the boosts.  The Doppler
centroid reads the state's transform: a centroid ignores a positive factor.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

try:  # CPython's own SHA-256: importing hashlib also loads OpenSSL (3.5 MB resident)
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from . import classical_field as cf
from . import quantum_blip as qb
from . import spectral
from .grid import (Axis, FieldConstants, Representation, SampledFunction, boost_field,
                   frozen, l2_distance, read_csv, write_csv)
from .kinematics import (BoostParams, kappa, lorentz_factor, make_boost,
                         simulate_signal_exchange, xi)

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

    def __post_init__(self):
        """Check the rules no other type owns; make_boost checks each boost."""
        problems = []
        if self.state_kind not in ("gaussian", "gaussian_carrier", "custom"):
            problems.append(f"state.kind: unknown kind {self.state_kind!r}")
        if self.state_kind == "custom" and not self.state_file:
            problems.append("state.file: required for state.kind = custom")
        if self.state_kind != "custom" and self.state_file:
            problems.append("state.file: only read for state.kind = custom")
        for key, value in (("state.width", self.state_width),
                           ("constants.h_density", self.h_density)):
            if not value > 0:
                problems.append(f"{key}: must be positive")
        if self.state_s not in (1, -1):
            problems.append("state.s: must be +1 or -1")
        if self.state_pol not in ("H", "V"):
            problems.append("state.lambda: must be H or V")
        problems += [f"checks: unknown check {name!r}"
                     for name in self.checks if name not in ALL_CHECKS]
        problems += [f"checks: duplicate check {name!r}"
                     for name in dict.fromkeys(self.checks) if self.checks.count(name) > 1]
        problems += [f"tolerances.{name}: must be a finite number >= 0, got {tol!r}"
                     for name, tol in self.tolerances.items() if not 0 <= tol < math.inf]
        boosts = [_build(problems, "boosts", make_boost, beta) for beta in self.boosts]
        if problems:
            raise ConfigError(problems)
        self.boosts, self.checks = [b.beta for b in boosts], tuple(self.checks)

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


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {text!r}")
    return value


# Config key -> (what it sets, name, value type).  A "config" key sets a
# ScenarioConfig field, a "grid" or "constants" key an argument of its Axis
# or its FieldConstants, and a "tolerances" key one check's tolerance.  The
# defaults are those of ScenarioConfig and FieldConstants; Axis has none.
_KEYS = {
    "grid.start": ("grid", "start", float),
    "grid.step": ("grid", "step", float),
    "grid.count": ("grid", "count", int),
    "constants.c": ("constants", "c", float),
    "constants.hbar": ("constants", "hbar", float),
    "constants.epsilon": ("constants", "epsilon", float),
    "constants.area": ("constants", "area", float),
    "constants.h_density": ("config", "h_density", float),
    "state.kind": ("config", "state_kind", str),
    "state.center": ("config", "state_center", float),
    "state.width": ("config", "state_width", float),
    "state.carrier_k": ("config", "state_carrier_k", float),
    "state.amplitude": ("config", "state_amplitude", float),
    "state.s": ("config", "state_s", int),
    "state.lambda": ("config", "state_pol", str),
    "state.file": ("config", "state_file", str),
    "boosts": ("config", "boosts", list),
    "checks": ("config", "checks", list),
    "output_dir": ("config", "output_dir", str),
    **{f"tolerances.{name}": ("tolerances", name, float) for name in ALL_CHECKS},
}
# How a value's text becomes each type; a list is comma-separated text items.
_CONVERT = {float: _finite, int: int, str: str,
            list: lambda text: [item.strip() for item in text.split(",") if item.strip()]}


def _parse_config_text(text: str) -> dict:
    """Flat dotted-key parser: `a.b = value` and `#` comments; values stay text."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError([f"line {lineno}: expected 'key = value'"])
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = value
    return out


def _build(problems, keys: str, make, *args, **kwargs):
    """`make(*args, **kwargs)`, or None with its ValueError as a problem of `keys`."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        problems.append(f"{keys}: {exc}")
        return None


def load_config(path) -> ScenarioConfig:
    """Parse and validate a scenario config file.

    Each value is converted by its key's type in `_KEYS`; Axis,
    FieldConstants, make_boost and ScenarioConfig then check their own
    rules.  All validation problems are aggregated into one ConfigError.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError([f"{path}: not UTF-8 text (byte {exc.start})"]) from None
    raw = _parse_config_text(text)
    problems = []
    args = {"config": {}, "grid": {}, "constants": {}, "tolerances": {}}
    for key, value in raw.items():
        if key not in _KEYS:
            problems.append(f"{key}: unknown key")
            continue
        group, name, kind = _KEYS[key]
        try:
            args[group][name] = _CONVERT[kind](value)
        except ValueError as exc:
            problems.append(f"{key}: {exc}")

    grid_keys = [key for key, (group, _, _) in _KEYS.items() if group == "grid"]
    problems += [f"{key}: missing required key" for key in grid_keys if key not in raw]
    fields = {**args["config"], "tolerances": args["tolerances"], "source_text": text}
    fields["grid"] = (_build(problems, ", ".join(grid_keys), Axis, **args["grid"])
                      if len(args["grid"]) == len(grid_keys) else None)
    constant_keys = ", ".join(f"constants.{name}" for name in args["constants"])
    fields["constants"] = _build(problems, constant_keys, FieldConstants, **args["constants"])
    try:  # even with a bad grid, so that one ConfigError lists every problem
        config = ScenarioConfig(**fields)
    except ConfigError as exc:
        problems += exc.problems
    if problems:
        raise ConfigError(problems)
    return config


def _build_amplitude(config: ScenarioConfig, artifact: Path) -> SampledFunction:
    """A custom amplitude, parsed from `artifact` (the run's copy of its
    input file) and put on `config.grid`, or a generated one.
    """
    if config.state_kind == "custom":
        f = read_csv(artifact, Representation.POSITION_CHI, config.state_s,
                     config.state_pol)
        if not f.axis.matches(config.grid):
            raise ValueError("custom sample grid does not match grid spec")
        f = f.with_values(f.values, axis=config.grid)
    else:
        chi = config.grid.points()
        vals = config.state_amplitude * np.exp(
            -((chi - config.state_center) ** 2) / (2.0 * config.state_width ** 2))
        vals = vals.astype(complex)
        if config.state_kind == "gaussian_carrier":
            vals *= np.exp(1j * config.state_s * config.state_carrier_k * chi)
        f = SampledFunction(axis=config.grid, values=frozen(vals),
                            representation=Representation.POSITION_CHI,
                            s=config.state_s, pol=config.state_pol)
    # min and max propagate NaN and reach any inf; the re/im view is no copy.
    parts = f.values.view(float)
    if not (np.isfinite(parts.min()) and np.isfinite(parts.max())):
        raise ValueError("input amplitude is not finite")
    if not np.any(f.values):
        raise ValueError("input amplitude is zero everywhere")
    return f


def _record(name, expected, measured, tolerance, diagnostics=None) -> CheckRecord:
    """rel_error is the absolute error when `expected` is 0, so a check of a
    quantity that should vanish gates on its absolute error.  A non-finite
    value or error makes the record errored: it can neither pass nor fail.
    """
    abs_error = abs(measured - expected)
    rel_error = abs_error / abs(expected) if expected != 0 else abs_error
    if not all(map(math.isfinite, (expected, measured, abs_error, rel_error))):
        return _errored(name, tolerance, "non-finite result")
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
    """A scenario's unboosted packet and blip state, and the boost-independent
    quantities the checks derive from them, each computed on first use.
    """

    def __init__(self, config: ScenarioConfig, amp: SampledFunction, boosts):
        self.config = config
        self.boosts = boosts
        self.s = config.state_s
        self.packet = amp.with_values(amp.values, pol="H")
        # Divided first by a power of two within a factor 2 of the peak, so
        # that |amp|**2 cannot overflow.  That division is exact (short of a
        # subnormal result), so a state whose norm did not overflow before
        # keeps its bits.
        peak = float(np.max(np.abs(amp.values)))
        scale = math.ldexp(1.0, math.frexp(peak)[1] - 1)
        unit = amp.with_values(frozen(amp.values / scale))
        nrm = math.sqrt(qb.photon_number(unit))
        self.state = unit.with_values(frozen(unit.values / nrm))

    @cached_property
    def momentum_state(self) -> SampledFunction:
        return spectral.to_momentum(self.state)

    @cached_property
    def spectrum(self) -> tuple:
        """The packet's spectral centroid and Parseval error, both read
        from its one momentum transform, which is not kept.
        """
        momentum, centroid = cf.spectrum(self.packet)
        return centroid, spectral.parseval_check(self.packet, momentum)

    @cached_property
    def box(self) -> cf.WorldlineBox:
        cfg = self.config
        width = 6.0 * cfg.state_width
        return cf.WorldlineBox(a1=cfg.state_center - width, a2=cfg.state_center + width,
                               h=cfg.h_density)

    @cached_property
    def box_energy(self) -> float:
        return cf.box_energy(self.packet, self.box, self.config.constants)

    @cached_property
    def total_energy(self) -> float:
        return cf.total_energy(self.packet, self.config.constants)

    @cached_property
    def photon_number(self) -> float:
        return qb.photon_number(self.state)

    @cached_property
    def matrix_element(self) -> SampledFunction:
        return qb.field_matrix_element(self.momentum_state, self.config.grid,
                                       self.config.constants)


class _Boosted:
    """One boost's packet and blip state, each built on first use on the
    source grid stretched about chi = 0 by kappa.
    """

    def __init__(self, src: _Source, boost):
        self.src = src
        self.boost = boost

    @cached_property
    def target(self) -> Axis:
        # Built inside a check, so that a stretch that overflows errors it.
        grid, kap = self.src.config.grid, kappa(self.src.s, self.boost)
        return Axis(start=grid.start * kap, step=grid.step * kap, count=grid.count)

    @cached_property
    def packet(self) -> SampledFunction:
        return boost_field(self.src.packet, self.boost, self.target, power=1)

    @cached_property
    def state(self) -> SampledFunction:
        return boost_field(self.src.state, self.boost, self.target, power=0.5)

    @cached_property
    def momentum_state(self) -> SampledFunction:
        return spectral.to_momentum(self.state)


def _output_step(message: str, step, *args, **kwargs) -> None:
    """`step(*args, **kwargs)`; an OSError becomes a ConfigError `message`."""
    try:
        step(*args, **kwargs)
    except OSError as exc:
        raise ConfigError([f"{message}: {exc.strerror or exc}"]) from None


def write_output(path: Path, write) -> None:
    """`write(path)`; a ConfigError names `path` if that fails."""
    _output_step(f"cannot write {path}", write, path)


def write_file(path: Path, write) -> None:
    """`write(path)`, which writes the file `path` whole.  If that fails,
    a file left at `path` (written part-way, say on a full disk) is removed
    and a ConfigError names `path`.
    """
    try:
        write_output(path, write)
    except ConfigError:
        if path.is_file():
            write_output(path, Path.unlink)
        raise


def run_scenario(config: ScenarioConfig, config_dir: Path | None = None) -> ScenarioReport:
    """Execute every requested check and persist the report and CSV dumps."""
    config_dir = Path(config_dir) if config_dir is not None else Path(".")
    out_dir = Path(config.output_dir)
    if not out_dir.is_absolute():
        out_dir = config_dir / out_dir
    _output_step(f"cannot create output directory {out_dir}", out_dir.mkdir,
                 parents=True, exist_ok=True)
    # A run that stops early must not leave an earlier run's report behind.
    write_output(out_dir / "report.json", lambda path: path.unlink(missing_ok=True))

    boosts = [make_boost(b) for b in config.boosts] or [make_boost(0.0)]
    # state_input.csv holds the amplitude the checks run on: a custom
    # input's own bytes, copied and then parsed, or a generated amplitude,
    # written once accepted.  A rejected input leaves none, but the
    # config's own state.file is never rewritten or removed.
    artifact = out_dir / "state_input.csv"
    custom = config.state_kind == "custom"
    own = False
    try:
        if custom:
            source = config_dir / config.state_file  # an absolute path stays as is
            own = source.resolve() == artifact.resolve()
            if not own:
                raw = source.read_bytes()
                write_file(artifact, lambda path: path.write_bytes(raw))
                del raw  # released before the checks run
        amp = _build_amplitude(config, artifact)
    except ConfigError:
        raise
    except Exception as exc:
        if not own:
            write_output(artifact, lambda path: path.unlink(missing_ok=True))
        checks = [_errored(name, config.tolerance(name), str(exc))
                  for name in config.checks]
        return _finalize(config, checks, out_dir)
    if not custom:
        write_file(artifact, lambda path: write_csv(amp, path))

    src = _Source(config, amp, boosts)
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
    # 1000 boosts evenly spread over |beta| <= 0.99, evaluated as arrays.
    beta = np.linspace(-0.99, 0.99, 1000)
    b = BoostParams(beta, lorentz_factor(beta))
    inv = BoostParams(-beta, lorentz_factor(-beta))
    worst = 0.0
    for sd in (+1, -1):
        worst = max(worst,
                    np.max(np.abs(xi(sd, b) * xi(sd, inv) - 1.0)),
                    np.max(np.abs(kappa(sd, b) * kappa(sd, inv) - 1.0)),
                    np.max(np.abs(kappa(sd, b) * xi(sd, b) - 1.0)))
    return float(worst)


def _signal_exchange(src: _Source) -> float:
    worst = 0.0
    for boost in src.boosts:
        _, _, t_receive_B = simulate_signal_exchange(boost, t_emit_A=1.0)
        worst = max(worst, abs(t_receive_B - kappa(+1, boost)))
    return worst


def _parseval(src: _Source) -> float:
    return src.spectrum[1]


def _doppler_centroid(src: _Source, b: _Boosted):
    base = src.spectrum[0]
    if base is None or base == 0.0:
        raise ValueError("doppler_centroid needs a carrier packet with "
                         "nonzero spectral centroid")
    return xi(src.s, b.boost), cf.spectral_centroid(b.momentum_state) / base, {}


def _box_energy_conservation(src: _Source, b: _Boosted):
    box_a, kap = src.box, kappa(src.s, b.boost)
    box_b = cf.WorldlineBox(a1=kap * box_a.a1, a2=kap * box_a.a2,
                            h=cf.transform_density(box_a.h, src.s, b.boost))
    return src.box_energy, cf.box_energy(b.packet, box_b, src.config.constants), {}


def _naive_energy_ratio(src: _Source, b: _Boosted):
    e_b = cf.total_energy(b.packet, src.config.constants)
    return xi(src.s, b.boost), e_b / src.total_energy, {}


def _photon_number_conservation(src: _Source, b: _Boosted):
    return src.photon_number, qb.photon_number(b.state), {}


def _momentum_path_commutativity(src: _Source, b: _Boosted):
    via_chi = b.momentum_state
    via_k = boost_field(src.momentum_state, b.boost, via_chi.axis, power=0.5)
    return 0.0, l2_distance(via_chi, via_k), {}


def _kernel_consistency(src: _Source, b: _Boosted):
    me_a = src.matrix_element
    me_b = qb.field_matrix_element(b.momentum_state, b.target, src.config.constants)
    discrepancy, leakage = qb.kernel_consistency_check(me_a, me_b, b.boost)
    return 0.0, discrepancy, {"leakage": leakage}


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
        "config_hash": sha256(config.source_text.encode()).hexdigest(),
        "grid": asdict(config.grid),
        "constants": {**asdict(config.constants), "h_density": config.h_density},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    report = ScenarioReport(meta=meta, checks=checks)
    payload = asdict(report)
    for rec in payload["checks"]:
        rec["pass"] = rec.pop("passed")
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    # Renamed into place, so that report.json is never a partial file.
    tmp = out_dir / "report.json.tmp"
    write_file(tmp, lambda path: path.write_text(text))
    write_output(out_dir / "report.json", tmp.replace)
    return report
