"""The benchmark's workloads, built from the shipped scenario configs.

Each workload writes its configs (and, for `custom_n18`, its input CSV)
into a fresh work directory, so every output lands there.  The seed only
moves the packet centre within +-1 (the packet width is 12 on a span of
200), which leaves each workload's sizes, boosts and checks unchanged.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SPAN = 200.0
SWEEP_BOOSTS = [round(0.1 * i, 1) for i in range(-9, 10)]

# Why each was chosen is in BENCHMARK.json.
WORKLOADS = ("shipped", "sweep_n16_b19", "custom_n18")


def read_cfg(text: str) -> dict:
    """`key = value` pairs of a scenario config, comments dropped."""
    out = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = (part.strip() for part in line.split("=", 1))
            out[key] = value
    return out


def write_cfg(keys: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


@dataclass
class Scenario:
    """One config file of a workload and the input it must reproduce."""

    name: str
    config: Path
    keys: dict
    amplitude: np.ndarray  # what state_input.csv must hold

    @property
    def count(self) -> int:
        return int(self.keys["grid.count"])

    @property
    def boosts(self) -> list:
        return [float(b) for b in self.keys["boosts"].split(",") if b.strip()]

    @property
    def checks(self) -> list:
        return [c.strip() for c in self.keys["checks"].split(",") if c.strip()]

    @property
    def s(self) -> int:
        return int(self.keys["state.s"])

    @property
    def pol(self) -> str:
        return self.keys.get("state.lambda", "H")

    @property
    def out_dir(self) -> Path:
        return self.config.parent / self.keys["output_dir"]

    def axis(self) -> tuple:
        return (float(self.keys["grid.start"]), float(self.keys["grid.step"]),
                self.count)


def packet(keys: dict) -> np.ndarray:
    """The gaussian / gaussian_carrier amplitude a config describes."""
    start, step, count = (float(keys["grid.start"]), float(keys["grid.step"]),
                          int(keys["grid.count"]))
    chi = start + step * np.arange(count)
    width = float(keys["state.width"])
    vals = float(keys.get("state.amplitude", 1.0)) * np.exp(
        -((chi - float(keys["state.center"])) ** 2) / (2.0 * width ** 2))
    vals = vals.astype(complex)
    if keys.get("state.kind") == "gaussian_carrier":
        vals *= np.exp(1j * int(keys["state.s"]) * float(keys["state.carrier_k"]) * chi)
    return vals


def write_packet_csv(keys: dict, values: np.ndarray, path: Path) -> None:
    """`coordinate,re,im` rows at 17 significant digits."""
    start, step = float(keys["grid.start"]), float(keys["grid.step"])
    chi = start + step * np.arange(len(values))
    np.savetxt(path, np.column_stack([chi, values.real, values.imag]),
               fmt="%.17g", delimiter=",", header="coordinate,re,im",
               comments="")


class Workload:
    """A set of scenario configs in `work_dir` and how one pass runs them."""

    def __init__(self, name: str, work_dir: Path, scenarios: list,
                 via_cli: bool):
        self.name = name
        self.work_dir = work_dir
        self.scenarios = scenarios
        self.via_cli = via_cli

    @property
    def boosted_samples(self) -> int:
        return sum(sc.count * max(len(sc.boosts), 1) for sc in self.scenarios)

    def run_pass(self, lcfield) -> int:
        """One pass through the public entry points; returns the exit code.

        `lcfield` is a namespace holding the `cli` and `scenario` modules;
        calls go through module attributes so that a tracer's patches apply.
        """
        if self.via_cli:
            with contextlib.redirect_stdout(io.StringIO()):
                return lcfield.cli.main(["check-all", str(self.work_dir)])
        for sc in self.scenarios:
            config = lcfield.scenario.load_config(sc.config)
            lcfield.scenario.run_scenario(config, config_dir=sc.config.parent)
        return 0


def _scenario(name, keys, work_dir, amplitude=None) -> Scenario:
    path = work_dir / f"{name}.cfg"
    path.write_text(write_cfg(keys))
    if amplitude is None:
        amplitude = packet(keys)
    return Scenario(name=name, config=path, keys=keys, amplitude=amplitude)


def build(name: str, seed: int, scenarios_dir: Path, work_dir: Path) -> Workload:
    """Write workload `name`'s inputs for `seed` into `work_dir`."""
    rng = random.Random(seed)
    if name == "shipped":
        scenarios = []
        for path in sorted(scenarios_dir.glob("*.cfg")):
            keys = read_cfg(path.read_text())
            keys["state.center"] = repr(rng.uniform(-1.0, 1.0))
            scenarios.append(_scenario(path.stem, keys, work_dir))
        return Workload(name, work_dir, scenarios, via_cli=True)

    keys = read_cfg((scenarios_dir / "gaussian_b06.cfg").read_text())
    keys["state.center"] = repr(rng.uniform(-1.0, 1.0))
    keys["output_dir"] = f"out/{name}"
    if name == "sweep_n16_b19":
        count = 2 ** 16
        keys.update({"grid.count": str(count), "grid.step": repr(SPAN / count),
                     "boosts": ", ".join(str(b) for b in SWEEP_BOOSTS)})
        return Workload(name, work_dir, [_scenario(name, keys, work_dir)],
                        via_cli=False)
    if name == "custom_n18":
        count = 2 ** 18
        keys.update({"grid.count": str(count), "grid.step": repr(SPAN / count),
                     "boosts": "0.3"})
        amplitude = packet(keys)
        write_packet_csv(keys, amplitude, work_dir / "packet.csv")
        keys.update({"state.kind": "custom", "state.file": "packet.csv"})
        return Workload(name, work_dir,
                        [_scenario(name, keys, work_dir, amplitude)],
                        via_cli=False)
    raise ValueError(f"unknown workload {name!r}")
