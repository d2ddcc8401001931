"""Random-feature multi-kernel baseline.

Each Gaussian kernel is approximated by random Fourier features: D
frequencies drawn from the kernel's spectral density (Normal(0, 1/sigma^2)
per coordinate), mapped through paired sin/cos and scaled by 1/sqrt(D) so
the feature vector always has unit squared norm. A linear model per kernel
is trained by regularized online gradient descent, and the per-kernel
predictions are mixed by multiplicative weights on their task losses.

The baseline reconstructs the comparison setup at the level of structure
(random features + per-kernel OGD + multiplicative weights); it makes no
exactness claim beyond that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec
from .losses import HingeLoss, check_label
from .protocol import check_features, same_example

__all__ = ["RakerConfig", "RakerBaseline"]


@dataclass
class RakerConfig:
    kernels: tuple[KernelSpec, ...]
    dim: int
    num_features: int = 400  # D
    step_size: float = 0.01  # eta; the benchmark grid is 10^{-3..3}/sqrt(T)
    reg: float = 0.005  # ridge coefficient on the linear weights
    loss: object = None  # defaults to hinge
    seed: int = 0

    def __post_init__(self):
        if not self.kernels:
            raise ValueError("need at least one kernel")
        for spec in self.kernels:
            if spec.kind != "gaussian":
                raise ValueError("random Fourier features require Gaussian kernels")
        if self.num_features < 1:
            raise ValueError("need at least one random feature")
        for name, value in (("step_size", self.step_size), ("reg", self.reg)):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if self.loss is None:
            self.loss = HingeLoss()


class RakerBaseline:
    """Per-kernel linear models on random Fourier features."""

    def __init__(self, config: RakerConfig):
        self.config = config
        self.kernels = tuple(config.kernels)
        k = len(self.kernels)
        d = config.dim
        rng = np.random.default_rng(np.random.SeedSequence(config.seed))
        # frequencies ~ Normal(0, 1/sigma^2) per kernel
        self.freqs = [
            rng.normal(0.0, 1.0 / spec.param, size=(config.num_features, d))
            for spec in self.kernels
        ]
        self.theta = [np.zeros(2 * config.num_features) for _ in range(k)]
        self.log_weights = np.zeros(k)
        self.cum_loss = np.zeros(k)
        self.t = 0
        self._last = None

    def features(self, i: int, x) -> np.ndarray:
        """z(x) = (1/sqrt(D)) [sin(w_1.x), cos(w_1.x), ...]; ||z||^2 = 1."""
        x = np.asarray(x, dtype=float)
        proj = self.freqs[i] @ x
        z = np.empty(2 * self.config.num_features)
        z[0::2] = np.sin(proj)
        z[1::2] = np.cos(proj)
        return z / math.sqrt(self.config.num_features)

    def mixture_weights(self) -> np.ndarray:
        z = self.log_weights - self.log_weights.max()
        w = np.exp(z)
        return w / w.sum()

    def predict(self, x):
        """(per-kernel values, their mixture, its sign); ValueError on a bad ``x`` before any state changes."""
        x, _ = check_features(x, self.config.dim)
        zs = [self.features(i, x) for i in range(len(self.kernels))]
        vals = np.array([self.theta[i] @ zs[i] for i in range(len(self.kernels))])
        if not np.all(np.isfinite(vals)):
            raise FloatingPointError("baseline weights diverged")
        w = self.mixture_weights()
        agg = float(w @ vals)
        self._last = (x, zs, vals)
        return vals, agg, 1 if agg >= 0 else -1

    def update(self, x, y) -> dict:
        y = check_label(y)
        cached = self._last
        if cached is None or not same_example(cached[0], x):
            self.predict(x)
            cached = self._last
        _, zs, vals = cached
        self._last = None
        self.t += 1
        eta = self.config.step_size
        losses = np.empty(len(self.kernels))
        for i in range(len(self.kernels)):
            losses[i] = self.config.loss.value(float(vals[i]), y)
            g = self.config.loss.deriv(float(vals[i]), y)
            self.theta[i] -= eta * (g * zs[i] + self.config.reg * self.theta[i])
        self.log_weights -= eta * losses
        self.cum_loss += losses
        return {"t": self.t, "losses": losses, "values": vals}

    def summary(self) -> dict:
        """Report cells of a finished run: the baseline adds none."""
        return {}
