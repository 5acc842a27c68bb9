"""Command-line entry point.

Subcommands:
  bench   -- compare PSO/EPSO on a registry benchmark function
  select  -- run wrapper feature selection on a CSV dataset

A JSON config file may be supplied with --config; explicit flags override
file values. Exit code 0 on success, 2 on validation problems, 1 on run
failures.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .benchmarks import available_functions
from .errors import ConfigError, ContractError, DataError, EvaluationError, UnknownFunctionError
from .harness import (ALGORITHMS, build_config, emit_report, emit_traces, parse_config,
                      run_experiment)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epso",
        description="Two-group particle swarm optimization: benchmarks and feature selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each dest is the config key the flag sets; a flag left out is None
    def add_common(p):
        p.add_argument("--runs", type=int, default=None, help="independent runs (default 30)")
        p.add_argument("--algo", dest="algorithm", choices=ALGORITHMS, default=None)
        p.add_argument("--seed", dest="base_seed", type=int, default=None,
                       help="base seed; run i uses seed+i")
        p.add_argument("--out", dest="out_dir", default=None,
                       help="output directory (default 'out')")
        p.add_argument("--trace", dest="emit_traces", action="store_true", default=None,
                       help="also emit per-run convergence CSVs")
        p.add_argument("--config", default=None, help="JSON config file; flags override it")
        p.add_argument("--population", dest="population_size", type=int, default=None)
        p.add_argument("--iterations", dest="max_iterations", type=int, default=None)

    bench = sub.add_parser("bench", help="benchmark function comparison")
    bench.add_argument(
        "--function", default=None,
        help="registry function name: " + ", ".join(available_functions()),
    )
    bench.add_argument("--dim", dest="dimension", type=int, default=None,
                       help="problem dimension (default 10)")
    add_common(bench)

    select = sub.add_parser("select", help="wrapper feature selection on a CSV dataset")
    select.add_argument("--data", dest="data_path", default=None, help="path to the CSV dataset")
    select.add_argument(
        "--label-col", default=None,
        help="label column: 'first', 'last', or a header name (default 'last')",
    )
    select.add_argument("--threshold", type=float, default=None,
                        help="feature selection threshold in (-1, 1), default 0.5")
    select.add_argument("--folds", dest="k_folds", type=int, default=None,
                        help="stratified folds (default 10)")
    add_common(select)

    return parser


def _check_out_dir(out_dir: str) -> None:
    """Refuse, before any run, an output directory whose nearest existing
    ancestor (or itself) is not a writable directory."""
    path = Path(out_dir)
    ancestor = next(p for p in (path, *path.parents) if os.path.exists(p))
    if not (os.path.isdir(ancestor) and os.access(ancestor, os.W_OK | os.X_OK)):
        raise ConfigError(f"out_dir {out_dir!r}: {ancestor} is not a writable directory")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    task = "benchmark" if args.command == "bench" else "feature-selection"
    overrides = {k: v for k, v in vars(args).items()
                 if v is not None and k not in ("command", "config")}
    try:
        if args.config:
            cfg = parse_config(args.config, task, overrides)
        else:
            cfg = build_config(task, overrides)
        _check_out_dir(cfg.out_dir)
        report = run_experiment(cfg)
        try:
            paths = emit_report(report, cfg.out_dir)
            if cfg.emit_traces:
                paths += emit_traces(report, cfg.out_dir)
        except OSError as exc:
            print(f"error: cannot write the reports: {exc}", file=sys.stderr)
            return 1
        for row in report.rows:
            print(", ".join(f"{k}={v}" for k, v in row.items()))
        for p in paths:
            print(f"wrote {p}")
        return 0
    except (ConfigError, DataError, ContractError, UnknownFunctionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EvaluationError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
