"""Command line entry point.

Exit status: 0 all checks pass, 1 any check fails or errors, 2 usage or
config problems.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .scenario import ConfigError, load_config, run_scenario


def _report_lines(name, report):
    yield f"scenario {name}: {'PASS' if report.all_passed else 'FAIL'}"
    for c in report.checks:
        if c.errored:
            status = "ERROR"
            detail = c.diagnostics.get("error", "")
        else:
            status = "pass" if c.passed else "FAIL"
            detail = (f"measured={c.measured:.6g} expected={c.expected:.6g} "
                      f"rel_error={c.rel_error:.3g} tol={c.tolerance:g}")
        yield f"  {c.name:32s} {status:5s} {detail}"


def _cmd_run(args, config) -> int:
    report = run_scenario(config, config_dir=Path(args.config).parent)
    for line in _report_lines(Path(args.config).stem, report):
        print(line)
    return 0 if report.all_passed else 1


def _cmd_check_all(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        print(f"error: not a directory: {directory}", file=sys.stderr)
        return 2
    configs = sorted(directory.glob("*.cfg"))
    if not configs:
        print(f"error: no .cfg files in {directory}", file=sys.stderr)
        return 2
    rows = []
    used = {}  # resolved output directory -> the config that used it
    for path in configs:
        try:
            config = load_config(path)
            try:
                earlier = used.setdefault((path.parent / config.output_dir).resolve(), path.name)
            except RuntimeError as exc:  # a symlink loop, before Python 3.13
                raise ConfigError([f"output_dir: {exc}"]) from None
            if earlier != path.name:
                raise ConfigError([f"output_dir: already used by {earlier}"])
            report = run_scenario(config, config_dir=path.parent)
        except ConfigError as exc:
            rows.append((path.stem, "CONFIG-ERROR", str(exc)))
            continue
        n_bad = sum(1 for c in report.checks if not c.passed or c.errored)
        if report.all_passed:
            rows.append((path.stem, "PASS", f"{len(report.checks)} checks"))
        else:
            rows.append((path.stem, "FAIL", f"{n_bad} failing checks"))
    width = max(len(r[0]) for r in rows)
    for name, status, detail in rows:
        print(f"{name:{width}s}  {status:12s}  {detail}")
    return 0 if all(status == "PASS" for _, status, _ in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lcfield",
        description="Light-cone Doppler simulator: run scenario configs "
                    "and invariant checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario config")
    p_run.add_argument("config")

    p_all = sub.add_parser("check-all",
                           help="run every .cfg in a directory, print a summary")
    p_all.add_argument("directory")

    sub.add_parser("version", help="print the package version")

    args = parser.parse_args(argv)
    if args.command == "version":
        print(__version__)
        return 0
    if args.command == "check-all":
        return _cmd_check_all(args)
    try:
        return _cmd_run(args, load_config(args.config))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
