#!/usr/bin/env python3
"""The random-feature baseline: approximation quality and a head-to-head.

Random Fourier features turn each Gaussian kernel into an explicit
finite-dimensional map; per-kernel linear learners plus multiplicative
weights then give a fixed-memory multi-kernel baseline.
"""

import math

import numpy as np

from okselect import HingeKernelSelector, HingeSelectorConfig, RakerBaseline, RakerConfig, gaussian, run_stream
from okselect.kernels import kernel_eval

rng = np.random.default_rng(5)

print("=== feature-map quality ===")
spec = gaussian(1.0, 0)
x, z = rng.normal(size=3), rng.normal(size=3)
truth = kernel_eval(spec, x, z)
for D in (10, 100, 1000):
    model = RakerBaseline(RakerConfig(kernels=(spec,), dim=3, num_features=D, seed=0))
    zx, zz = model.features(x)[0], model.features(z)[0]
    print(f"D={D:<5} <z(x),z(z)>={zx @ zz:+.4f}   true k(x,z)={truth:+.4f}   "
          f"||z(x)||^2={zx @ zx:.12f}")

print()
print("=== budgeted kernel selection vs the random-feature baseline ===")
T, d = 3000, 6
X = np.vstack([rng.normal(1.0, 0.8, (T // 2, d)), rng.normal(-1.0, 0.8, (T - T // 2, d))])
y = np.concatenate([np.ones(T // 2, int), -np.ones(T - T // 2, int)])
order = rng.permutation(T)
X, y = X[order], y[order]

specs = tuple(gaussian(s, i) for i, s in enumerate((0.25, 1.0, 4.0, 16.0, 64.0)))

selector = HingeKernelSelector(
    HingeSelectorConfig(kernels=specs, dim=d, budget=100, horizon=T, seed=1)
)
m, _ = run_stream(selector, X, y)
print(f"budgeted selector (100 stored examples): AMR {100 * m / T:.2f}%")

baseline = RakerBaseline(
    RakerConfig(kernels=specs, dim=d, num_features=400, step_size=10 / math.sqrt(T), seed=1)
)
m, _ = run_stream(baseline, X, y)
print(f"random-feature baseline (D=400):       AMR {100 * m / T:.2f}%")
print(f"baseline mixture weights: {np.round(baseline.mixture_weights(), 3)}")
