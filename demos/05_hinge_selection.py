#!/usr/bin/env python3
"""The full hinge-loss kernel selector on a categorical-table stream.

The stream mimics a one-hot encoded categorical dataset whose attributes
co-vary with the class, the regime where kernel alignment is far below T
and a few hundred stored examples suffice.
"""

import numpy as np

from okselect import HingeKernelSelector, HingeSelectorConfig, gaussian, run_stream

rng = np.random.default_rng(4)
T, attrs, levels = 4000, 22, 5
d = attrs * levels

y = np.where(rng.random(T) < 0.5, 1, -1)
pref = rng.integers(0, levels, size=(2, attrs))
cats = np.empty((T, attrs), dtype=int)
for a in range(attrs):
    cls = (y > 0).astype(int)
    cats[:, a] = np.where(rng.random(T) < 0.75, pref[cls, a], rng.integers(0, levels, size=T))
X = np.zeros((T, d))
for a in range(attrs):
    X[np.arange(T), a * levels + cats[:, a]] = 1.0

sigmas = (0.25, 1.0, 4.0, 16.0, 64.0)
specs = tuple(gaussian(s, i) for i, s in enumerate(sigmas))
learner = HingeKernelSelector(
    HingeSelectorConfig(kernels=specs, dim=d, budget=400, horizon=T, seed=0, lambda_scale=2.0)
)
print(f"budget split: archive cap {learner.archive_cap}, per-kernel buffer {learner.per_kernel_cap}")

mistakes_so_far = 0
branch_mix = {"skip": 0, "proxy": 0, "sampled": 0}


def progress(rec):
    global mistakes_so_far
    mistakes_so_far += rec.mistake
    for b in rec.branch:
        branch_mix[b] += 1
    if rec.t in (500, 2000, T):
        print(f"t={rec.t:<5} AMR so far {100 * mistakes_so_far / rec.t:5.2f}%  "
              f"mixture {np.round(learner.hedge.distribution(), 2)}")


mistakes, _ = run_stream(learner, X, y, progress)
learner.check_invariants()
print()
print(f"final AMR: {100 * mistakes / T:.2f}%")
print(f"per-kernel update branches over all rounds: {branch_mix}")
print(f"alignment proxies per sigma {sigmas}: {np.round(learner.gap_sums, 1)}")
print(f"  (minimum {learner.gap_sums.min():.0f} vs worst-case scale T = {T})")
print(f"removals per kernel: {learner.removals.tolist()}")
print(f"expected-removals scale (x3 is the diagnostic cap): "
      f"{learner.removal_bounds().astype(int).tolist()}")
print(f"archive size {len(learner.reservoir.archive)} <= cap {learner.archive_cap}; "
      f"every per-kernel buffer <= {learner.per_kernel_cap}")
