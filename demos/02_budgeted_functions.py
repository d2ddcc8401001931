#!/usr/bin/env python3
"""Budgeted kernel expansions: steps, projection, and removal with drop.

A hypothesis is f_i = sum_s coef[i, s] k_i(x_s, .) where the x_s sit in the
slots of a fixed-size, reference-counted example store, and the K
hypotheses of a kernel grid are the rows of one coefficient matrix. Each
step adds c k_i(x, .) for a stored x, which changes ||f_i||^2 by
2 c f_i(x) + c^2 k_i(x, x): the caller passes that closed-form change and
the step evaluates no kernel. The buffers are the learner's: here, as in
the hinge learner, one list of slots per kernel, each membership holding
one store reference. ``drop`` removes slots from some kernels' expansions:
it zeroes their coefficients, releases one reference per slot (freeing the
slots nothing else holds, in the order given) and recomputes the norms.
"""

import numpy as np

from okselect import ExampleStore, KernelExpansions, gaussian
from okselect.kernels import self_values

rng = np.random.default_rng(1)
store = ExampleStore(dim=2)
ex = KernelExpansions((gaussian(1.0, 0), gaussian(4.0, 1)), store)
buffers = [[], []]  # each kernel's slots, oldest first

print("=== steps with closed-form norm changes, for both kernels ===")
for step in range(6):
    x = rng.normal(size=2)
    slot = store.add(x, rng.choice([-1, 1]), float(x @ x))  # the caller passes the squared norm it has
    c = rng.normal(size=2) * 0.8  # one coefficient per kernel
    fx = ex.values_at(slot)  # f_i(x) before the step
    ex.step(slot, c, 2.0 * c * fx + c * c * self_values(ex.specs, float(x @ x)))
    store.incref(slot)  # it joins both kernels' buffers: add's reference and this one
    for buf in buffers:
        buf.append(slot)
    cached = ex.sq_norms.copy()
    ex.recompute_sq_norms()
    recomputed = ex.sq_norms
    print(f"step {step}: |buffer|={len(buffers[0])}  cached ||f_i||^2={np.round(cached, 6)}  "
          f"recomputed={np.round(recomputed, 6)}")

print()
print("=== the values of every kernel from one pass over the store ===")
q = np.array([0.2, -0.1])
rows = ex.rows(q, float(q @ q))
print(f"k_i(x_s, q) for the {store.capacity} slots: a {rows.shape} matrix")
print("f_i(q) =", np.round(np.vecdot(ex.coef, rows), 6))

print()
print("=== projection onto the norm ball ===")
radius = 0.75
print(f"before: ||f_i|| = {np.round(np.sqrt(ex.sq_norms), 4)}, radius = {radius}")
ex.project(radius)
print(f"after : ||f_i|| = {np.round(np.sqrt(ex.sq_norms), 4)} (caches set exactly to radius^2: {ex.sq_norms})")
ex.project(radius)
print(f"idempotent: second projection leaves ||f_i|| = {np.round(np.sqrt(ex.sq_norms), 4)}")

print()
print("=== half-removal, one kernel at a time ===")
print("kernel 0 buffer (insertion order):", buffers[0])
half = len(buffers[0]) // 2
removed = buffers[0][half:]
ex.drop(slice(0, 1), removed)
del buffers[0][half:]
print("kept oldest half:                 ", buffers[0])
print("removed slots:                    ", removed)
print("removed slots are still live, held by kernel 1's buffer:", bool(store.refs[removed].all()))
ex.drop(slice(1, 2), buffers[1][half:])
del buffers[1][half:]
print("after kernel 1's removal they are freed:", not store.refs[removed].any())
print(f"live slots: {len(store)} of {store.capacity}")
print(f"norms recomputed from the survivors: ||f_i||^2 = {np.round(ex.sq_norms, 6)}")
reused = [store.add(np.zeros(2), 1, 0.0) for _ in range(2)]
print("the next two examples get the freed slots, last freed first:", reused, "of", removed)
for slot in reused:
    store.release(slot)  # nothing else took them, so the last reference frees them

print()
print("=== coefficient mass outside the dropped slots survives ===")
x = rng.normal(size=2)
outside = store.add(x, 1, float(x @ x))  # held by an archive, as the hinge learner's guess anchors are
ex.coef[0, outside] = 0.4  # coefficients may also be written directly, then the norms recomputed
ex.recompute_sq_norms()
ex.drop(slice(0, 1), buffers[0][1:])
del buffers[0][1:]
print(f"after another removal, the outside anchor still carries {ex.coef[0, outside]:.2f}")

