"""lcfield benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) in this single-threaded process
through lcfield's public entry points, with native thread pools capped at
the number of usable cores, and checks the outputs (gate.py).  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`:

- `--trace 0`: the end-to-end metrics, measured untraced;
- `--trace 1`: the per-layer metrics, from passes run under a Tracer
  (tracing.py), plus the tracing overhead against untraced passes of the
  same run.

`attempted` counts the check records produced by the measured passes and
`failed` those that ended in an error; checks that ran and missed their
tolerance are counted in the metrics instead.  The line before it holds
the environment fingerprint, the input sizes and the raw timings.

Everything the program writes goes to a temporary directory under
`.perfbench_tmp/` in the checkout, removed before exit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
TMP_ROOT = ROOT / ".perfbench_tmp"

SETUP_REPEATS = 3
MIN_PASSES = 3  # per measured series: a median, and passes to compare
MIN_TRACE_PASSES = 2  # per series (untraced, traced) of a traced run
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

CHECKS = ("doppler_centroid", "box_energy_conservation", "naive_energy_ratio",
          "photon_number_conservation", "momentum_path_commutativity",
          "kernel_consistency", "parseval", "signal_exchange", "reciprocity")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "boosted_samples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "checks_passed_frac": "ratio",
    "worst_err_over_tol": "ratio",
    "photon_number_rel_err": "ratio",
}

SELF_TIME_SPANS = (
    "scenario.load_config", "grid.write_csv", "grid.read_csv",
    "grid.resample", "grid.trig_interpolate", "grid.czt",
    "grid.leakage_fraction", "spectral.signed_dft", "spectral.parseval_check",
    "classical_field.boost_packet", "classical_field.spectrum",
    "classical_field.box_energy", "quantum_blip.boost_blip",
    "quantum_blip.boost_momentum_state", "quantum_blip.field_matrix_element",
    "quantum_blip.kernel_consistency_check",
    *(f"scenario.check.{name}" for name in CHECKS),
    "scenario.run_scenario", "scenario.to_json", "cli.main", "kinematics",
)
COUNTED_SPANS = (
    "grid.resample", "grid.trig_interpolate", "grid.czt",
    "grid.leakage_fraction", "spectral.signed_dft",
    "classical_field.boost_packet", "classical_field.spectrum",
    "quantum_blip.boost_blip", "quantum_blip.boost_momentum_state",
    "quantum_blip.field_matrix_element", "kinematics",
)
PER_LAYER = {
    "setup.import_s": "s",
    **{f"{span}.s": "s" for span in SELF_TIME_SPANS},
    **{f"{span}.calls": "count" for span in COUNTED_SPANS},
    "grid.trig_interpolate.identity_calls": "count",
    "grid.czt.distinct_plans": "count",
    "grid.write_csv.bytes": "bytes",
    "grid.read_csv.bytes": "bytes",
    "scenario.report.bytes": "bytes",
    "grid.resample.sample_point_err": "ratio",
    "checks_failed_frac": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

# Import lcfield, then load the configs given, in a fresh interpreter.
SETUP_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import lcfield.cli
import lcfield.scenario
t1 = time.perf_counter()
for path in sys.argv[2:]:
    lcfield.scenario.load_config(path)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_config_s": t2 - t1}))
"""


def cap_thread_pools() -> int:
    """Cap native thread pools at the usable cores; must run before numpy."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_ENV:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return nproc


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint(lc, nproc: int) -> dict:
    import numpy
    import scipy
    return {
        "lcfield": lc.version,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu": cpu_model(),
        "thread_env": {var: os.environ[var] for var in THREAD_ENV},
    }


def measure_setup(workload) -> list:
    configs = [str(sc.config) for sc in workload.scenarios]
    runs = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC),
                               *configs],
                              capture_output=True, text=True, timeout=120,
                              check=True)
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    return runs


def run_series(workload, lc, seconds, min_passes, outputs, tracer_cls=None):
    """Passes until `seconds` are measured and at least `min_passes` ran.

    Each pass starts without output directories; its exit code and report
    texts are appended to `outputs`.  Returns the pass times and, when
    traced, each pass's tracer.
    """
    times, tracers = [], []
    while len(times) < min_passes or sum(times) < seconds:
        for sc in workload.scenarios:
            shutil.rmtree(sc.out_dir, ignore_errors=True)
        tracer = tracer_cls() if tracer_cls else contextlib.nullcontext()
        with tracer:
            t0 = time.perf_counter()
            code = workload.run_pass(lc)
            times.append(time.perf_counter() - t0)
        if tracer_cls:
            tracers.append(tracer)
        reports = {}
        for sc in workload.scenarios:
            path = sc.out_dir / "report.json"
            reports[sc.name] = path.read_text() if path.is_file() else ""
        outputs.append({"code": code, "reports": reports})
    return times, tracers


def check_outputs(workload, lc, outputs, gate) -> list:
    """Gate every pass's outputs; returns the check records of all passes."""
    records = []
    first = {}
    for i, out in enumerate(outputs):
        if workload.via_cli:
            gate.exit_code(f"pass {i}", out["code"])
        for sc in workload.scenarios:
            where = f"pass {i} {sc.name}"
            report = gate.report(where, out["reports"][sc.name], sc.checks)
            if report is None:
                continue
            records.extend(report["checks"])
            if sc.name in first:
                gate.same_across_passes(where, first[sc.name], report)
            else:
                first[sc.name] = report
    for sc in workload.scenarios:
        path = sc.out_dir / "state_input.csv"
        if not path.is_file():
            gate.fail(f"{sc.name}: no state_input.csv")
            continue
        f = lc.grid.read_csv(path, lc.grid.Representation.POSITION_CHI,
                             sc.s, sc.pol)
        gate.amplitude(sc.name, (f.axis.start, f.axis.step, f.axis.count),
                       f.values, sc.axis(), sc.amplitude)
    return records


def accuracy(records) -> dict:
    ok = [c for c in records if not c["errored"]]
    n = max(len(records), 1)
    return {
        "checks_passed_frac": sum(1 for c in ok if c["pass"]) / n,
        "checks_failed_frac": (len(records) - sum(1 for c in ok if c["pass"])) / n,
        "worst_err_over_tol": max((c["rel_error"] / c["tolerance"] for c in ok
                                   if c["tolerance"] > 0), default=0.0),
        "photon_number_rel_err": max(
            (c["rel_error"] for c in ok
             if c["name"] == "photon_number_conservation"), default=0.0),
    }


def sample_point_err(workload, lc) -> float:
    """max |interpolant - samples| / peak on the kappa*xi-rounded query axis.

    Boosting onto the kappa-scaled axis queries the source at points that
    equal its samples up to rounding; the resampler should return them.
    """
    grid, kin = lc.grid, lc.kinematics
    worst = 0.0
    for sc in workload.scenarios:
        start, step, count = sc.axis()
        f = grid.SampledFunction(axis=grid.Axis(start, step, count),
                                 values=sc.amplitude,
                                 representation=grid.Representation.POSITION_CHI,
                                 s=sc.s, pol=sc.pol)
        peak = float(abs(sc.amplitude).max())
        for beta in sc.boosts or [0.0]:
            boost = kin.make_boost(beta)
            k = kin.kappa(sc.s, boost)
            target = grid.Axis(start * k, step * k, count)
            g = grid.resample(f, scale=kin.xi(sc.s, boost),
                              amplitude_factor=1.0, target=target)
            worst = max(worst, float(abs(g.values - sc.amplitude).max()) / peak)
    return worst


def per_layer(tracers, traced_outputs) -> dict:
    """Median over traced passes of each span metric (0 where never called)."""
    layers = [t.metrics() for t in tracers]
    for layer, out in zip(layers, traced_outputs):
        layer["scenario.report.bytes"] = sum(len(text.encode())
                                             for text in out["reports"].values())
    return {name: (statistics.median if unit == "s" else statistics.median_low)(
                [layer.get(name, 0) for layer in layers])
            for name, unit in PER_LAYER.items()}


def input_sizes(workload) -> dict:
    def size(path):
        return path.stat().st_size if path.is_file() else None
    return {
        "boosted_samples": workload.boosted_samples,
        "scenarios": [{
            "name": sc.name, "N": sc.count, "B": len(sc.boosts),
            "checks": len(sc.checks),
            "state_input_csv_bytes": size(sc.out_dir / "state_input.csv"),
            "input_csv_bytes": size(workload.work_dir / sc.keys["state.file"])
            if "state.file" in sc.keys else None,
        } for sc in workload.scenarios],
    }


def load_lcfield():
    """Import lcfield from this checkout's src/; the modules the benchmark calls."""
    sys.path.insert(0, str(SRC))
    import lcfield
    import lcfield.cli
    import lcfield.grid
    import lcfield.kinematics
    import lcfield.scenario
    return types.SimpleNamespace(cli=lcfield.cli, scenario=lcfield.scenario,
                                 grid=lcfield.grid, kinematics=lcfield.kinematics,
                                 version=lcfield.__version__)


def run(args, work: Path, nproc: int) -> tuple:
    lc = load_lcfield()
    from gate import Gate
    from tracing import Tracer
    from workloads import build

    workload = build(args.workload, args.seed, SCENARIOS, work / "run")
    setup = measure_setup(workload)

    # One small scenario through the same layers finishes lazy imports and
    # first-use set-up before timing, at a fraction of a full pass's cost.
    warm = work / "warmup"
    warm.mkdir()
    shutil.copy(SCENARIOS / "gaussian_b05.cfg", warm)
    lc.scenario.run_scenario(lc.scenario.load_config(warm / "gaussian_b05.cfg"),
                             config_dir=warm)

    gate = Gate()
    outputs = []
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "fingerprint": fingerprint(lc, nproc),
            "setup": setup}
    if args.trace:
        untraced, _ = run_series(workload, lc, args.seconds / 2,
                                 MIN_TRACE_PASSES, outputs)
        n_untraced = len(outputs)
        traced, tracers = run_series(workload, lc, args.seconds / 2,
                                     MIN_TRACE_PASSES, outputs, Tracer)
        info.update(untraced_pass_s=untraced, traced_pass_s=traced,
                    missing_hooks=tracers[0].missing)
    else:
        times, _ = run_series(workload, lc, args.seconds, MIN_PASSES, outputs)
        info["pass_s"] = times
    records = check_outputs(workload, lc, outputs, gate)
    acc = accuracy(records)

    if args.trace:
        metrics = per_layer(tracers, outputs[n_untraced:])
        metrics.update({
            "setup.import_s": statistics.median(r["import_s"] for r in setup),
            "grid.resample.sample_point_err": sample_point_err(workload, lc),
            "checks_failed_frac": acc["checks_failed_frac"],
            "trace.wall_s": statistics.median(traced),
            "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
        })
        units = PER_LAYER
    else:
        wall = statistics.median(times)
        metrics = {
            "setup_s": statistics.median(r["import_s"] + r["load_config_s"]
                                         for r in setup),
            "wall_s": wall,
            "boosted_samples_per_s": workload.boosted_samples / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **acc,
        }
        units = END_TO_END

    info["inputs"] = input_sizes(workload)
    info["gate_problems"] = gate.problems
    result = {
        "correct": not gate.problems,
        "attempted": max(len(records), 1),
        "failed": sum(1 for c in records if c["errored"]),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return info, result


def main(argv=None) -> int:
    nproc = cap_thread_pools()
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "lcfield" / "__init__.py", SCENARIOS)
               if not p.exists()]
    if missing:
        print(f"error: {missing[0]} not found; run from an lcfield checkout",
              file=sys.stderr)
        return 2

    TMP_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT))
    (work / "run").mkdir()
    try:
        info, result = run(args, work, nproc)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_ROOT.rmdir()
    print(json.dumps({"info": info}))
    for problem in info["gate_problems"]:
        print(f"gate: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
