#!/usr/bin/env python3
"""Reservoir sampling and the gradient guess it supports.

The hinge learner guesses the next gradient as the average of -y k(x, .)
over a uniform sample of the past. This demo shows (a) the sample really
is uniform, and (b) the guess's value tracks the full-history average at a
fraction of the memory.
"""

import numpy as np

from okselect import ExampleStore, Reservoir, gaussian
from okselect.kernels import kernel_eval, kernel_rows, pairwise

rng = np.random.default_rng(2)


def offer(r, x, y):
    """Store (x, y), offer its slot to the reservoir, and release the store's
    reference, which frees the slot unless the reservoir kept it."""
    x = np.asarray(x, dtype=float)
    slot = r.store.add(x, y, float(x @ x))
    kept = r.observe(slot)
    r.store.release(slot)
    return kept


print("=== uniformity over the stream ===")
M, T, runs = 5, 200, 4000
counts = np.zeros(T)
for _ in range(runs):
    store = ExampleStore(dim=1, capacity=64)
    r = Reservoir(store, M, 10**9, rng)
    round_of = {}
    for t in range(T):
        if offer(r, [float(t)], 1):
            round_of[r.archive[-1]] = t
    for slot in r.sample:
        counts[round_of[slot]] += 1
expected = runs * M / T
print(f"each of {T} rounds should appear in the final sample ~{expected:.0f} times")
print(f"observed min/mean/max over rounds: {counts.min():.0f} / {counts.mean():.1f} / {counts.max():.0f}")

print()
print("=== the guess tracks the running average ===")
spec = gaussian(1.0)
store = ExampleStore(dim=2, capacity=256)  # room for the uncapped archive of this run
r = Reservoir(store, capacity=10, archive_cap=10**9, rng=rng, specs=(spec,))
history = []
query = np.array([0.25, -0.4])
errors = []
for t in range(2000):
    x = rng.normal(size=2)
    y = 1 if x.sum() > 0 else -1
    exact = -np.mean([yy * kernel_eval(spec, xx, query) for xx, yy in history]) if history else 0.0
    rows = kernel_rows(r.specs, *pairwise(store.X, store.sqnorm, query, float(query @ query)))
    guess = r.optimistic_value_many(rows)[0]
    if t in (10, 100, 500, 1999):
        print(f"t={t:<5} guess={guess:+.4f}  full-history average={exact:+.4f}  "
              f"sample size={len(r)}  archive={len(r.archive)}")
    if history:
        errors.append(abs(guess - exact))
    history.append((x, y))
    offer(r, x, y)
print(f"mean absolute gap to the full average over the run: {np.mean(errors):.4f}")
print(f"memory held: {len(r.archive)} archived examples vs {len(history)} seen")
