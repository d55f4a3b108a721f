"""Correctness gate on a workload's outputs.

Physics-check failures are results, not gate failures: they are counted
in the metrics.  The gate fails when the program's outputs are missing,
malformed, inconsistent between passes, or do not hold the input it was
given.
"""

from __future__ import annotations

import json

import numpy as np

# state_input.csv holds the amplitude at 17 significant digits; the
# benchmark computes the expected one independently, so allow round-off.
AMPLITUDE_RTOL = 1e-12

# Fields of a check record the metrics are computed from.
RECORD_KEYS = ("name", "pass", "errored", "rel_error", "tolerance")


class Gate:
    """Collects problems; the run is correct when there are none."""

    def __init__(self):
        self.problems = []

    def fail(self, message: str) -> None:
        self.problems.append(message)

    def report(self, where: str, text: str, requested: list):
        """Parse one report.json; it must hold one record per requested check."""
        try:
            report = json.loads(text)
            names = [c["name"] for c in report["checks"]]
            missing = {k for c in report["checks"] for k in RECORD_KEYS
                       if k not in c}
        except (ValueError, KeyError, TypeError) as exc:
            self.fail(f"{where}: unreadable report.json ({exc!r})")
            return None
        if missing:
            self.fail(f"{where}: check records lack {sorted(missing)}")
            return None
        if names != list(requested):
            self.fail(f"{where}: report has checks {names}, expected {requested}")
            return None
        return report

    def same_across_passes(self, where: str, first: dict, other: dict) -> None:
        """Reports of repeated passes agree apart from their timestamp."""
        def strip(report):
            meta = {k: v for k, v in report.get("meta", {}).items()
                    if k != "timestamp"}
            return {**report, "meta": meta}
        if strip(first) != strip(other):
            self.fail(f"{where}: report differs between passes")

    def amplitude(self, where: str, axis, values, want_axis, want) -> None:
        """state_input.csv read back equals the amplitude that was built."""
        if not np.allclose(axis, want_axis, rtol=1e-15, atol=0.0):
            self.fail(f"{where}: state_input.csv axis {axis} != {want_axis}")
            return
        err = float(np.max(np.abs(np.asarray(values) - want)))
        if not err <= AMPLITUDE_RTOL * float(np.max(np.abs(want))):
            self.fail(f"{where}: state_input.csv differs from the input "
                      f"amplitude by {err:.3g}")

    def exit_code(self, where: str, code: int) -> None:
        if code != 0:
            self.fail(f"{where}: exit code {code}, expected 0")
