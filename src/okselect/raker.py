"""Random-feature multi-kernel baseline.

Each Gaussian kernel is approximated by random Fourier features: D
frequencies drawn from the kernel's spectral density (Normal(0, 1/sigma^2)
per coordinate), mapped through paired sin/cos and scaled by 1/sqrt(D) so
the feature vector always has unit squared norm. A linear model per kernel
is trained by regularized online gradient descent, and the per-kernel
predictions are mixed by multiplicative weights on their task losses.

Each per-kernel quantity is one array with a row per kernel (kernel i owns
frequency rows iD to (i+1)D - 1), so a round is one matrix-vector product,
one ``sin``, one ``cos`` and array steps. ``predict`` returns the shared
:class:`~okselect.protocol.Prediction` and ``update`` the shared
:class:`~okselect.protocol.RoundRecord`, selector-only fields left unset.

The baseline reconstructs the comparison setup at the level of structure
(random features + per-kernel OGD + multiplicative weights); it makes no
exactness claim beyond that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec
from .losses import HingeLoss
from .protocol import Prediction, RoundRecord, check_features, mix, pending

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
    """Per-kernel linear models on random Fourier features, one array row per kernel."""

    def __init__(self, config: RakerConfig):
        self.config = config
        self.loss = config.loss
        self.kernels = tuple(config.kernels)
        k = len(self.kernels)
        D = config.num_features
        rng = np.random.default_rng(np.random.SeedSequence(config.seed))
        # frequencies ~ Normal(0, 1/sigma^2) per coordinate; kernel i owns rows iD .. (i+1)D - 1
        freqs = rng.standard_normal((k, D, config.dim))
        freqs *= np.array([1.0 / spec.param for spec in self.kernels])[:, None, None]
        self.freqs = freqs.reshape(k * D, config.dim)
        self.theta = np.zeros((k, 2 * D))
        self.log_weights = np.zeros(k)
        self.cum_loss = np.zeros(k)
        self.t = 0
        self._last: Prediction | None = None

    def features(self, x) -> np.ndarray:
        """Row i is z_i(x) = (1/sqrt(D)) [sin(w_1.x), cos(w_1.x), ...] of kernel i; ||z_i||^2 = 1."""
        x = np.asarray(x, dtype=float)
        k, D = self.theta.shape[0], self.config.num_features
        proj = (self.freqs @ x).reshape(k, D)
        z = np.empty((k, 2 * D))
        np.sin(proj, out=z[:, 0::2])
        np.cos(proj, out=z[:, 1::2])
        z /= math.sqrt(D)
        return z

    def mixture_weights(self) -> np.ndarray:
        z = self.log_weights - self.log_weights.max()
        w = np.exp(z)
        return w / w.sum()

    def predict(self, x) -> Prediction:
        """Per-kernel values, their mixture and its sign; ValueError on a bad ``x`` before any state changes."""
        x, xsq = check_features(x, self.config.dim)
        zs = self.features(x)
        vals = np.vecdot(self.theta, zs)
        if not np.all(np.isfinite(vals)):
            raise FloatingPointError("baseline weights diverged")
        self._last = pred = mix(x, xsq, vals, self.mixture_weights(), cache=zs)
        return pred

    def update(self, x, y) -> RoundRecord:
        y, pred = pending(self, x, y)
        zs, vals = pred.cache, pred.per_kernel
        loss, eta = self.loss, self.config.step_size
        losses = np.array([loss.value(v, y) for v in vals.tolist()])
        g = np.array([loss.deriv(v, y) for v in vals.tolist()])
        # theta -= eta * (g zs + reg theta), built in one scratch array with the same roundings
        step = g[:, None] * zs
        step += self.config.reg * self.theta
        step *= eta
        self.theta -= step
        self.log_weights -= eta * losses
        self.cum_loss += losses
        return RoundRecord.of(self.t, pred, y, losses)

    def summary(self) -> dict:
        """Report cells of a finished run: the baseline adds none."""
        return {}
