#!/usr/bin/env python3
"""Alternating A/B runs of the benchmark on two checkouts.

    python3 tools/ab_bench.py PARENT_DIR CHANGE_DIR --workload W --pairs N --seconds S --seed0 K

Pair i runs ``okbench/run.py --workload W --seed K+i --seconds S --trace 0``
once in each checkout, the parent first in even pairs and the change first
in odd ones. The two checkouts must hold byte-identical ``okbench/`` trees
and ``BENCHMARK.json``, so that both are measured by the same benchmark;
otherwise nothing runs. The runs write nothing to either checkout
(bytecode caching is off).

For every end-to-end metric of ``BENCHMARK.json`` the report gives each
side's median and quartiles, the pairs the change won (ties count for
neither side) and two verdicts:

* gain: the change won at least nine tenths of the pairs and its median is
  better than the parent's by more than the parent's quartile distance;
* bound: the change's median is worse than the parent's by more than the
  metric's relative bound (``regressed``), or not (``ok``); when the
  parent's own quartile distance over its median exceeds the bound, the
  metric is ``unresolved`` unless every run of the change beats every run
  of the parent.

The exit code is 1 when a metric regressed or a run failed, else 0.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

GAIN_WIN_SHARE = 0.9


@dataclass
class Summary:
    median: float
    q1: float
    q3: float

    @property
    def spread(self) -> float:
        return self.q3 - self.q1


def summarize(values) -> Summary:
    values = sorted(values)
    if len(values) == 1:
        return Summary(values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return Summary(q2, q1, q3)


def verdict(parent, change, better: str, bound: float) -> dict:
    """Compare paired runs of one metric; ``better`` is "higher" or "lower"."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same non-zero number of runs on both sides")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    ps, cs = summarize(parent), summarize(change)
    gap = sign * (cs.median - ps.median)  # > 0 when the change is better
    gain = wins >= GAIN_WIN_SHARE * len(parent) and gap > ps.spread
    status = "ok" if gap >= -bound * abs(ps.median) else "regressed"
    if ps.spread > bound * abs(ps.median) and not min(sign * c for c in change) > max(sign * p for p in parent):
        # the parent's own runs spread wider than the bound: no call either way
        status = "unresolved"
    return {"parent": ps, "change": cs, "wins": wins, "losses": losses, "gain": gain, "bound": status}


def _fmt(s: Summary) -> str:
    return f"{s.median:.4g} [{s.q1:.4g}, {s.q3:.4g}]"


def same_benchmark(a: Path, b: Path) -> list[str]:
    """Paths under okbench/ and BENCHMARK.json that differ between two checkouts."""
    def files(root: Path):
        return {
            p.relative_to(root)
            for p in (root / "okbench").rglob("*")
            if p.is_file() and "__pycache__" not in p.parts
        } | {Path("BENCHMARK.json")}

    diff = []
    for rel in sorted(files(a) | files(b)):
        fa, fb = a / rel, b / rel
        if not (fa.is_file() and fb.is_file() and filecmp.cmp(fa, fb, shallow=False)):
            diff.append(str(rel))
    return diff


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    out = subprocess.run(
        [sys.executable, "okbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, env=env, capture_output=True, text=True,
    )
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{root}: okbench/run.py printed nothing (exit {out.returncode}): {out.stderr[-500:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed0", type=int, required=True)
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()

    diff = same_benchmark(parent, change)
    if diff:
        print("refusing to run: the benchmark differs between the checkouts: " + ", ".join(diff), file=sys.stderr)
        return 2
    spec = json.loads((parent / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(parent if side == "parent" else change, args.workload, seed, args.seconds)
            runs[side].append(result)
        line = "  ".join(
            f"{side} {runs[side][-1]['metrics']['rounds_per_s']['value']:.0f}/s" for side in ("parent", "change")
        )
        print(f"pair {i + 1}/{args.pairs} seed {seed} ({order[0]} first): {line}", flush=True)

    failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    print(f"\n{args.workload}: {args.pairs} pairs of {args.seconds:g} s runs; failed parent {failed['parent']} change {failed['change']}")
    print(f"{'metric':16s} {'parent median [q1, q3]':>32s} {'change median [q1, q3]':>32s} {'ratio':>6s} {'wins':>6s}  gain  bound")
    regressed = False
    for m in metrics:
        name = m["name"]
        p = [r["metrics"][name]["value"] for r in runs["parent"]]
        c = [r["metrics"][name]["value"] for r in runs["change"]]
        v = verdict(p, c, m["better"], m["bound"])
        regressed |= v["bound"] == "regressed"
        ps, cs = v["parent"], v["change"]
        ratio = cs.median / ps.median if ps.median else float("nan")
        print(
            f"{name:16s} {_fmt(ps):>32s} {_fmt(cs):>32s} {ratio:6.3f} {v['wins']:>3d}/{args.pairs:<2d}"
            f"  {'yes' if v['gain'] else 'no':4s}  {v['bound']} (bound {m['bound']})"
        )
    return 1 if regressed or failed["change"] or failed["parent"] else 0


if __name__ == "__main__":
    sys.exit(main())
