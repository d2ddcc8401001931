#!/usr/bin/env python3
"""The shared-buffer smooth-loss selector and the budget/loss trade-off.

The stream is the adversarial construction over 3B basis vectors with
alternating labels: no hypothesis on fewer examples than the support can
fit it, so average loss must fall as the budget grows.
"""

import warnings

import numpy as np

from okselect import SmoothKernelSelector, SmoothSelectorConfig, gen_lowerbound, polynomial, run_stream

stream_support = 25  # the stream replays 3 * 25 = 75 distinct basis vectors
T = 6000
print(f"adversarial stream: {3 * stream_support} distinct basis vectors, T = {T}")
print()

for budget in (12, 50, 150):
    losses = []
    for seed in range(3):
        ds = gen_lowerbound(budget=stream_support, rounds=T, seed=10 + seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            learner = SmoothKernelSelector(
                SmoothSelectorConfig(
                    kernels=(polynomial(1, 0),), dim=ds.dim, budget=budget, seed=seed
                )
            )
        run_stream(learner, ds.dense_features(), ds.y)
        learner.check_invariants()
        losses.append(learner.cum_loss / T)
    print(f"buffer budget {budget:>4}: average logistic loss {np.mean(losses):.4f} "
          f"(removals in last run: {learner.removals})")

print()
print("A single buffer serves every kernel: the same coin decides insertion")
print("for all of them, so the K expansions share the store's B slots and the")
print("memory cost does not multiply with the size of the kernel grid.")
