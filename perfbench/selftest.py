"""Tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py

The file name keeps these out of the repository's default test run; they
start the benchmark and take about half a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from gate import Gate  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def lc():
    return run.load_lcfield()


def _bench(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "shipped",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_spec_matches_benchmark_code():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_unit(trace, key):
    result = _bench(trace)
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    emitted = result["metrics"]
    for metric in SPEC[key]:
        assert emitted[metric["name"]]["unit"] == metric["unit"]
        assert isinstance(emitted[metric["name"]]["value"], (int, float))
    assert set(emitted) == {m["name"] for m in SPEC[key]}


def test_tampered_report_trips_gate(lc, tmp_path):
    workload = build("shipped", 5, run.SCENARIOS, tmp_path)
    outputs = []
    run.run_series(workload, lc, 0, 2, outputs)
    clean = Gate()
    run.check_outputs(workload, lc, outputs, clean)
    assert clean.problems == []

    name = workload.scenarios[0].name
    report = json.loads(outputs[1]["reports"][name])
    report["checks"][0]["measured"] *= 1.0 + 1e-9
    tampered = [outputs[0], {**outputs[1], "reports": {
        **outputs[1]["reports"], name: json.dumps(report)}}]
    gate = Gate()
    run.check_outputs(workload, lc, tampered, gate)
    assert any("differs between passes" in p for p in gate.problems)

    report["checks"].pop()
    dropped = [{**outputs[0], "reports": {**outputs[0]["reports"],
                                          name: json.dumps(report)}}]
    gate = Gate()
    run.check_outputs(workload, lc, dropped, gate)
    assert any("expected" in p for p in gate.problems)

    del report["checks"][0]["rel_error"]
    stripped = [{**outputs[0], "reports": {**outputs[0]["reports"],
                                           name: json.dumps(report)}}]
    gate = Gate()
    run.check_outputs(workload, lc, stripped, gate)
    assert any("lack ['rel_error']" in p for p in gate.problems)

    truncated = [{**outputs[0], "reports": {
        **outputs[0]["reports"], name: outputs[0]["reports"][name][:-40]}}]
    gate = Gate()
    run.check_outputs(workload, lc, truncated, gate)
    assert any("unreadable" in p for p in gate.problems)

    csv = workload.scenarios[0].out_dir / "state_input.csv"
    lines = csv.read_text().splitlines()
    x, re_, im = lines[1000].split(",")
    lines[1000] = f"{x},{float(re_) + 1e-3!r},{im}"
    csv.write_text("\n".join(lines) + "\n")
    gate = Gate()
    run.check_outputs(workload, lc, outputs[:1], gate)
    assert any("state_input.csv differs" in p for p in gate.problems)

    failing = [{**outputs[0], "code": 1}]
    gate = Gate()
    run.check_outputs(workload, lc, failing, gate)
    assert any("exit code 1" in p for p in gate.problems)


def test_call_counts_repeat_across_traced_runs(lc, tmp_path):
    counts = []
    for i in range(2):
        (tmp_path / str(i)).mkdir()
        workload = build("shipped", 7, run.SCENARIOS, tmp_path / str(i))
        _, tracers = run.run_series(workload, lc, 0, 1, [], Tracer)
        metrics = tracers[0].metrics()
        counts.append({k: v for k, v in metrics.items()
                       if not k.endswith(".s")})
        assert tracers[0].missing == []
    assert counts[0] == counts[1]
    assert counts[0]["grid.resample.calls"] > 0
    assert counts[0]["kinematics.calls"] > 0


def test_tracer_patches_every_binding(lc):
    import lcfield.classical_field as cf
    import lcfield.quantum_blip as qb
    original = lc.grid.resample
    with Tracer():
        assert cf.resample is qb.resample is lc.grid.resample
        assert lc.grid.resample is not original
    assert cf.resample is qb.resample is lc.grid.resample is original
