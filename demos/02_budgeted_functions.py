#!/usr/bin/env python3
"""Budgeted kernel expansions: steps, projection, and half-removal.

A hypothesis is f = sum_j beta_j k(x_j, .) where the x_j sit in the slots
of a fixed-size, reference-counted example store. The squared norm is
tracked incrementally; removing the newer half of the buffer recomputes it
exactly and frees the slot of any example nothing references anymore.
"""

import numpy as np

from okselect import BudgetedFunction, ExampleStore, gaussian

rng = np.random.default_rng(1)
store = ExampleStore(dim=2)
spec = gaussian(1.0)
f = BudgetedFunction(spec, store)

print("=== rank-one steps with incremental norm tracking ===")
for step in range(6):
    slot = store.add(rng.normal(size=2), rng.choice([-1, 1]))
    f.add_scaled(rng.normal() * 0.8, slot)
    f.buffer_append(slot)
    print(f"step {step}: |buffer|={f.buffer_size()}  cached ||f||^2={f.squared_norm():.6f}  "
          f"recomputed={f.recompute_sq_norm():.6f}")

print()
print("=== projection onto the norm ball ===")
radius = 0.75
print(f"before: ||f|| = {f.norm():.4f}, radius = {radius}")
f.project_ball(radius)
print(f"after : ||f|| = {f.norm():.4f} (cache set exactly to radius^2: {f.squared_norm()})")
f.project_ball(radius)
print(f"idempotent: second projection leaves ||f|| = {f.norm():.4f}")

print()
print("=== half-removal ===")
print("buffer (insertion order):", f.own_buffer)
removed = f.split_half()
print("kept oldest half:        ", f.own_buffer)
print("removed slots:           ", removed)
print("removed slots were freed by the store:", not store.live[removed].any())
print(f"live slots: {len(store)} of {store.capacity}")
print(f"norm recomputed from the survivors: ||f||^2 = {f.squared_norm():.6f}")

print()
print("=== coefficient mass outside the buffer survives a split ===")
outside = store.add(rng.normal(size=2), 1)
f.add_scaled(0.4, outside)  # e.g. a gradient-guess anchor budgeted elsewhere
while f.buffer_size() % 2 != 0:
    slot = store.add(rng.normal(size=2), 1)
    f.add_scaled(0.1, slot)
    f.buffer_append(slot)
f.split_half()
print(f"after another split, the outside anchor still carries {f.coeffs[outside]:.2f}")
