"""Command-line interface.

Subcommands:

* ``run --config <file>`` - execute an experiment described by a JSON
  config (keys mirror :class:`okselect.bench.ExperimentConfig`) and write
  the CSV report.
* ``datagen lowerbound --budget B --rounds T --seed S --out <file>`` -
  write the adversarial basis-vector stream in sparse text format.
* ``inspect <dataset>`` - print the size and dimension of a dataset file.

Exit codes: 0 success, 1 configuration/usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bench
from .data import gen_lowerbound, parse_libsvm, serialize_libsvm


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the contract wants usage + 1
    def error(self, message):
        raise _UsageError(f"{message}\n{self.format_usage()}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="okselect", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the JSON config file")

    p_gen = sub.add_parser("datagen", help="generate a synthetic dataset")
    gen_sub = p_gen.add_subparsers(dest="generator", required=True)
    p_lb = gen_sub.add_parser("lowerbound", help="adversarial basis-vector stream")
    p_lb.add_argument("--budget", type=int, required=True)
    p_lb.add_argument("--rounds", type=int, required=True)
    p_lb.add_argument("--seed", type=int, default=0)
    p_lb.add_argument("--out", required=True)

    p_ins = sub.add_parser("inspect", help="print dataset summary")
    p_ins.add_argument("dataset")
    return parser


def _cmd_run(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    config = bench.ExperimentConfig.from_dict(raw)
    report = bench.run(config)
    failures = [r for r in report.rows if str(r.get("config", "")).startswith("FAILED")]
    mean_row, std_row = report.aggregates()
    out = config.output
    if not out:
        out = "report.csv"
        report.to_csv(out)
    for row in report.formatted_rows():
        print(
            f"seed={row['seed']} AMR={row['AMR_percent']}% "
            f"cum_loss={row['cum_loss']} wall={row['wall_time_s']}s"
        )
    print(f"mean AMR={mean_row['AMR_percent']}% +- {std_row['AMR_percent']} -> {out}")
    if failures:
        print(f"{len(failures)} repeat(s) failed", file=sys.stderr)
        return 2
    return 0


def _cmd_datagen(args) -> int:
    ds = gen_lowerbound(budget=args.budget, rounds=args.rounds, seed=args.seed)
    serialize_libsvm(ds, args.out)
    print(f"wrote {ds.num_examples} rounds over {ds.dim} features to {args.out}")
    return 0


def _cmd_inspect(args) -> int:
    ds = parse_libsvm(args.dataset)
    pos = int((ds.y > 0).sum())
    print(f"dataset={ds.name}")
    print(f"T={ds.num_examples}")
    print(f"d={ds.dim}")
    print(f"positives={pos} negatives={ds.num_examples - pos}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "datagen":
            return _cmd_datagen(args)
        try:  # inspect, the one command left: the parser requires one
            return _cmd_inspect(args)
        except OSError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 1
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
