"""Command-line scenario runner: validate configs, run single simulations,
and sweep fleet or infrastructure parameters.

Exit codes: 0 success; 1 configuration error, a ``ConfigError`` raised
before any run starts for a malformed scenario, ``--seed`` or sweep value,
or a malformed command line;
2 model error, a run aborted at an event the model cannot explain (a
``ModelError``, which the engine wraps in ``SimulationAborted`` naming the
event; no event is dropped); 3 I/O error, an ``OSError`` writing the
outputs: an unwritable ``--out`` before any event runs, or a failed write
that aborts the run.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import yaml

from .config import (ConfigError, SWEEPABLE_PARAMS, build_config,
                     default_scenario_path, load_config, load_raw)
from .engine import ModelError, SimulationAborted
from .simulation import run_scenario, sweep

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_MODEL = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """An argument parser that exits with ``EXIT_CONFIG``, not argparse's
    2 (``EXIT_MODEL`` here), on a malformed command line; its subparsers
    are of this class too."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _config_path(value: str) -> Path:
    if value == "default":
        return default_scenario_path()
    return Path(value)


def _parse_values(text: str) -> list:
    values = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            values.append(int(chunk))
        except ValueError:
            try:
                values.append(float(chunk))
            except ValueError:
                # argparse would name this function in a ValueError's message
                raise argparse.ArgumentTypeError(
                    f"not a number: {chunk!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("no values given")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="evfleetsim",
        description=(
            "Deterministic discrete-event simulator for electric vehicle "
            "fleets and charging infrastructure. Pass 'default' as CONFIG "
            "to use the bundled scenario."
        ),
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="enable debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a scenario file")
    p_validate.add_argument("config", type=_config_path)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("config", type=_config_path)
    p_run.add_argument("--seed", type=int, default=None,
                       help="replace the configured seed")
    p_run.add_argument("--out", type=Path, default=Path("out"),
                       help="output directory (default: ./out)")
    p_run.add_argument("--event-log", action="store_true",
                       help="also write the dispatched-event log CSV")

    p_sweep = sub.add_parser("sweep", help="run one scenario per parameter value")
    p_sweep.add_argument("config", type=_config_path)
    p_sweep.add_argument("--param", required=True, choices=SWEEPABLE_PARAMS)
    p_sweep.add_argument("--values", required=True, type=_parse_values,
                         help="comma-separated values, e.g. 100,90,80")
    p_sweep.add_argument("--out", type=Path, default=Path("sweep_out"))
    return parser


def cmd_validate(args) -> int:
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"INVALID: {args.config}", file=sys.stderr)
        for error in exc.errors:
            print(f"  - {error}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"OK: {args.config}")
    print(yaml.safe_dump(config.effective, sort_keys=False), end="")
    return EXIT_OK


def cmd_run(args) -> int:
    raw = load_raw(args.config)
    if args.seed is not None:
        raw["seed"] = args.seed
    config = build_config(raw, args.config.parent.resolve())
    result = run_scenario(config, args.out, event_log=args.event_log)
    files = ", ".join(sorted(result.manifest["files"]))
    print(
        f"completed: {result.engine_summary.total_dispatched} events, "
        f"{len(result.trips)} trips, {result.n_stranded} stranded, "
        f"min_idle={result.min_idle}"
    )
    print(f"outputs in {result.out_dir}: {files}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    rows = sweep(args.config, args.param, args.values, args.out)
    print(f"{'value':>12} {'min_idle':>8} {'mean_wait_s':>12} {'stranded':>8}")
    for row in rows:
        print(f"{row['value']:>12} {row['min_idle']:>8} "
              f"{row['mean_wait_s']:>12.1f} {row['n_stranded']:>8}")
    print(f"aggregate written to {Path(args.out) / 'sweep.csv'}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "validate":
            return cmd_validate(args)
        if args.command == "run":
            return cmd_run(args)
        # the subparsers are required, so the one command left is "sweep"
        return cmd_sweep(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SimulationAborted, ModelError) as exc:
        if isinstance(exc, SimulationAborted) and isinstance(exc.cause, OSError):
            print(f"I/O error: {exc}", file=sys.stderr)
            return EXIT_IO
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
