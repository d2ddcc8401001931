#!/usr/bin/env python3
"""Kernel evaluation and the geometry it induces.

Every learner in the library sees examples only through kernel values, so
this demo walks the two kernel families and the feature-space distance that
drives the proxy-update rule.
"""

import numpy as np

from okselect import feature_distance, gaussian, kernel_eval, polynomial
from okselect.kernels import KernelGrid, kernel_rows, pairwise

rng = np.random.default_rng(0)

print("=== Gaussian kernels ===")
x = np.array([1.0, 0.0])
z = np.array([0.0, 0.0])
for sigma in (0.25, 1.0, 4.0):
    spec = gaussian(sigma)
    print(f"sigma={sigma:<5} k(x,x)={kernel_eval(spec, x, x):.3f}  "
          f"k(x,z)={kernel_eval(spec, x, z):.6f}  "
          f"||phi(x)-phi(z)||={feature_distance(spec, x, z):.6f}")

print()
print("The diagonal is always 1 for Gaussian kernels, and the feature")
print("distance saturates at sqrt(2) as points move apart:")
far = feature_distance(gaussian(1.0), np.array([50.0, 0.0]), np.array([-50.0, 0.0]))
print(f"  distance at separation 100: {far:.12f}  (sqrt(2) = {np.sqrt(2):.12f})")

print()
print("=== Polynomial kernels (used by the adversarial stream) ===")
e1, e2 = np.eye(2)
spec = polynomial(2)
print(f"orthonormal basis vectors: k(e1,e2)={kernel_eval(spec, e1, e2)}  "
      f"k(e1,e1)={kernel_eval(spec, e1, e1)}")

print()
print("=== Batched evaluation ===")
print("Stored examples live in a matrix; one query against all of them is a")
print("single matrix-vector product plus cached row norms, and every kernel")
print("of a grid is read off the same inner products and distances:")
X = rng.normal(size=(5, 3))
sq = np.einsum("ij,ij->i", X, X)
q = rng.normal(size=3)
grid = KernelGrid((gaussian(0.5), gaussian(1.0), polynomial(2)))  # built once, read every call
rows = kernel_rows(grid, *pairwise(X, sq, q, float(q @ q)))
for spec, row in zip(grid, rows):
    check = np.array([kernel_eval(spec, x, q) for x in X])
    print(f"  {spec.kind:<10} {spec.param:<4} batch: {' '.join(f'{v:.4f}' for v in row)}  "
          f"max abs difference to a loop: {float(np.max(np.abs(row - check))):.1e}")
