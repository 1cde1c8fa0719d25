"""Command-line interface: ``illposed run`` and ``illposed compare``.

Exit codes: 0 on success (compare: directories match), 1 on an invariant
violation (compare: directories differ), 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .experiment import (
    ConfigError,
    ExperimentConfig,
    InvariantViolation,
    compare,
    load_config,
    run,
    summary_lines,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="illposed",
        description="Regularization laboratory for linear discrete ill-posed problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="execute one configured experiment")
    runp.add_argument("--config", metavar="FILE", help="flat key=value config file")
    for f in fields(ExperimentConfig):
        runp.add_argument(f"--{f.name}", help=f"{f.metadata['help']} (overrides the config file)")

    cmpp = sub.add_parser("compare", help="diff two artifact directories")
    cmpp.add_argument("dir_a")
    cmpp.add_argument("dir_b")
    cmpp.add_argument(
        "--tol",
        action="append",
        default=[],
        metavar="COLUMN=REL",
        help="relative tolerance for one column (repeatable)",
    )
    return parser


def _parse_tolerances(entries) -> dict:
    tolerances = {}
    for entry in entries:
        column, sep, value = entry.partition("=")
        if not sep or not column:
            raise ConfigError(f"--tol expects COLUMN=REL, got {entry!r}")
        try:
            tolerances[column] = float(value)
        except ValueError as err:
            raise ConfigError(f"--tol {entry!r}: {err}") from err
    return tolerances


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            overrides = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)}
            config = load_config(args.config, overrides)
            result = run(config)
            print("\n".join(summary_lines(result.summary)))
            print(f"artifacts written to {result.outdir}")
            return 0
        report = compare(args.dir_a, args.dir_b, _parse_tolerances(args.tol))
        print("\n".join(report.lines()))
        return 0 if report.ok else 1
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except InvariantViolation as err:
        print(f"invariant violation: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
