"""Per-layer tracing for the benchmark's traced run.

A `Tracer` wraps functions of the lcfield modules in spans that record
self time (a span's duration minus the time its child spans cover) and
call counts.  Every binding of a wrapped function inside the package is
replaced, not only the one in its defining module: `resample`, for
example, is imported by name into `classical_field` and `quantum_blip`,
and calls made through those names must be counted too.

Hook points are looked up by name; one the program no longer has is
skipped and listed in `Tracer.missing`, so its metrics read zero.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _file_bytes(index, name):
    def count(tracer, span, args, kwargs, result):
        path = _arg(args, kwargs, index, name)
        tracer.counts[f"{span}.bytes"] += os.path.getsize(path)
    return count


def _identity_query(tracer, span, args, kwargs, result):
    f, query = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "query")
    if (query.start, query.step, query.count) == (f.axis.start, f.axis.step,
                                                  f.axis.count):
        tracer.counts[f"{span}.identity_calls"] += 1


def _czt_plan(tracer, span, args, kwargs, result):
    x = _arg(args, kwargs, 0, "x")
    tracer.plans.add((len(x), _arg(args, kwargs, 1, "m"),
                      _arg(args, kwargs, 2, "w")))


def _check_name(args, kwargs):
    name = _arg(args, kwargs, 0, "name")
    return f"scenario.check.{name}" if isinstance(name, str) else "scenario.check"


# (span name or function of the call's arguments, module, attribute, hook
# run after each call).  The spans sit at the boundaries the per-layer
# metrics in BENCHMARK.json name.
HOOKS = [
    ("cli.main", "lcfield.cli", "main", None),
    ("scenario.load_config", "lcfield.scenario", "load_config", None),
    ("scenario.run_scenario", "lcfield.scenario", "run_scenario", None),
    (_check_name, "lcfield.scenario", "_run_check", None),
    ("scenario.to_json", "lcfield.scenario", "_to_json", None),
    ("grid.write_csv", "lcfield.grid", "write_csv", _file_bytes(1, "path")),
    ("grid.read_csv", "lcfield.grid", "read_csv", _file_bytes(0, "path")),
    ("grid.resample", "lcfield.grid", "resample", None),
    ("grid.trig_interpolate", "lcfield.grid", "trig_interpolate", _identity_query),
    ("grid.czt", "lcfield.grid", "czt", _czt_plan),
    ("grid.leakage_fraction", "lcfield.grid", "_leakage_fraction", None),
    ("spectral.signed_dft", "lcfield.spectral", "_signed_dft", None),
    ("spectral.parseval_check", "lcfield.spectral", "parseval_check", None),
    ("classical_field.boost_packet", "lcfield.classical_field", "boost_packet", None),
    ("classical_field.spectrum", "lcfield.classical_field", "spectrum", None),
    ("classical_field.box_energy", "lcfield.classical_field", "box_energy", None),
    ("quantum_blip.boost_blip", "lcfield.quantum_blip", "boost_blip", None),
    ("quantum_blip.boost_momentum_state", "lcfield.quantum_blip",
     "boost_momentum_state", None),
    ("quantum_blip.field_matrix_element", "lcfield.quantum_blip",
     "field_matrix_element", None),
    ("quantum_blip.kernel_consistency_check", "lcfield.quantum_blip",
     "kernel_consistency_check", None),
]

# Every public function of this module is one span, named after the module.
AGGREGATED_MODULES = ("lcfield.kinematics",)


def _targets():
    """Return the (span, function, after) hook targets and the missing ones."""
    missing = []
    targets = []
    for span, module, attr, after in HOOKS:
        fn = getattr(sys.modules.get(module), attr, None)
        if callable(fn):
            targets.append((span, fn, after))
        else:
            missing.append(f"{module}.{attr}")
    for module in AGGREGATED_MODULES:
        mod = sys.modules.get(module)
        if mod is None:
            missing.append(module)
            continue
        span = module.split(".", 1)[1]
        for attr, fn in vars(mod).items():
            if (inspect.isfunction(fn) and fn.__module__ == module
                    and not attr.startswith("_")):
                targets.append((span, fn, None))
    return targets, missing


class Tracer:
    """Context manager: wraps the hook points on entry, restores them on exit.

    `self_s[span]` is the self time and `calls[span]` the call count of a
    span; `counts` holds the other per-call counters and `plans` the
    distinct chirp-z `(n, m, w)` keys seen.
    """

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.plans = set()
        self.missing = []
        self._stack = []
        self._patched = []

    def _wrap(self, span, fn, after):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = span(args, kwargs) if callable(span) else span
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.self_s[name] += elapsed - children
                self.calls[name] += 1
            if after is not None:
                after(self, name, args, kwargs, result)
            return result
        return traced

    def __enter__(self):
        targets, self.missing = _targets()
        # Keyed by id: `targets` keeps every original alive meanwhile.
        wrappers = {id(fn): self._wrap(span, fn, after)
                    for span, fn, after in targets}
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "lcfield"
                                         or name.startswith("lcfield."))]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()
        return False

    def metrics(self):
        """Flat `<span>.s`, `<span>.calls` and counter values for one pass."""
        out = {}
        for name, seconds in self.self_s.items():
            out[f"{name}.s"] = seconds
            out[f"{name}.calls"] = self.calls[name]
        out.update(self.counts)
        out["grid.czt.distinct_plans"] = len(self.plans)
        return out
