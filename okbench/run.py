"""okselect benchmark: one workload, one seed, one result line.

Run from the root of a checkout:

    python3 okbench/run.py --workload hinge_onehot --seed 1 --seconds 10 --trace 0

It streams a seeded synthetic stream through a learner of the checkout's
``src/okselect`` (never an installed copy) and prints a report line with
the stream's digest, the environment, the correctness checks and every
end-to-end metric, and then, as its last line, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off; with ``--trace 1`` a further traced pass gives the per-layer
ones. Workloads are listed in ``okbench/workloads.py``. The exit code is 0
when every correctness check passed, 1 when one failed, and 2 when the
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The workloads are single-threaded closed loops. OpenBLAS would otherwise
# split each 400-row matrix-vector product over two threads, and on a few
# shared cores the hand-offs between them measure the scheduler, not the
# learner. Set before numpy is first imported.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)


def _git_sha(root: Path) -> str:
    """HEAD's commit from the files under .git, or "unknown" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    import numpy

    return {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREADS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None, help="truncate the stream (smoke tests)")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "okselect" / "__init__.py").is_file():
        print(f"okbench: no okselect sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    # The learners warn about configurations the paper's analysis does not
    # cover; the workloads use them on purpose.
    warnings.filterwarnings("ignore", message="ball radius .* exceeds the analysed range")
    warnings.filterwarnings("ignore", message="buffer budget .* is odd")

    import okselect
    from okbench.harness import END_TO_END, PER_LAYER, UNBOUNDED, measure
    from okbench.workloads import WORKLOADS

    if Path(okselect.__file__).resolve().parent != (src / "okselect").resolve():
        print(f"okbench: imported okselect from {okselect.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    report, checks, metrics = measure(
        WORKLOADS[args.workload], args.seed, args.seconds, trace=bool(args.trace), rounds=args.rounds
    )
    report["environment"] = environment(ROOT)
    report["checks"] = checks
    units = {**PER_LAYER, **UNBOUNDED} if args.trace else END_TO_END
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
