"""Random-feature multi-kernel baseline.

Each Gaussian kernel is approximated by random Fourier features: D
frequencies from the kernel's spectral density Normal(0, I/sigma^2), mapped
through paired sin/cos and scaled by 1/sqrt(D) so the feature vector has
unit squared norm up to rounding. The density is a scaled standard normal,
so the grid shares one (D, d) draw g, and kernel i's frequencies are
g / sigma_i: each kernel's features are distributed as with a draw of its
own (Rahimi and Recht, 2007). A linear model per kernel is trained by
regularized online gradient descent, and the per-kernel predictions are
mixed by multiplicative weights on their task losses.

Each per-kernel quantity is one array with a row per kernel, so a round
is one (D, d) matrix-vector product, its (K, D) scalings by 1/(2 sigma_i),
one ``tan`` and array steps. Each pair comes from one t = tan(theta/2) by
the half-angle identities sin theta = 2t/(1+t^2) and cos theta =
(1-t)(1+t)/(1+t^2), within 1 ulp of 1.0 of numpy's ``sin`` and ``cos``:
those are slow on arguments they have not just seen, while numpy's float64
``tan`` is vectorised. ``predict`` returns the shared
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

from .kernels import KernelSpec, _check_specs, _count, _is_finite
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
        self.kernels = _check_specs(self.kernels)
        for spec in self.kernels:
            if spec.kind != "gaussian":
                raise ValueError("random Fourier features require Gaussian kernels")
        self.dim = _count(self.dim, "dim")
        self.num_features = _count(self.num_features, "need at least one random feature, so num_features")
        self.seed = _count(self.seed, "seed", minimum=0)
        for name, value in (("step_size", self.step_size), ("reg", self.reg)):
            if not (_is_finite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if self.loss is None:
            self.loss = HingeLoss()


class RakerBaseline:
    """Per-kernel linear models on random Fourier features, one array row per kernel."""

    def __init__(self, config: RakerConfig):
        self.config = config
        self.loss = config.loss
        k = len(config.kernels)
        D = config.num_features
        rng = np.random.default_rng(np.random.SeedSequence(config.seed))
        # kernel i's frequencies are base / sigma_i ~ Normal(0, 1/sigma_i^2) per coordinate
        self.base = rng.standard_normal((D, config.dim))
        self.half_inv_widths = np.array([[0.5 / spec.param] for spec in config.kernels])  # (K, 1)
        self.theta = np.zeros((k, 2 * D))
        self.log_weights = np.zeros(k)
        self.t = 0
        self._last: Prediction | None = None

    def features(self, x) -> np.ndarray:
        """Row i is z_i(x) = (1/sqrt(D)) [sin(w_1.x), cos(w_1.x), ...] of kernel i; ||z_i||^2 = 1 up to rounding."""
        x = np.asarray(x, dtype=float)
        k, D = self.theta.shape[0], self.config.num_features
        t = (self.half_inv_widths * self.base.dot(x)).ravel()  # the (K, D) half angles theta/2, kernel after kernel
        np.tan(t, out=t)
        r = t * t
        r += 1.0
        r *= math.sqrt(D)  # sqrt(D) (1 + t^2)
        z = np.empty((k * D, 2))
        sin, cos = z[:, 0], z[:, 1]
        np.add(t, t, out=sin)
        sin /= r
        np.multiply(1.0 - t, 1.0 + t, out=cos)
        cos /= r
        return z.reshape(k, 2 * D)

    def mixture_weights(self) -> np.ndarray:
        z = self.log_weights - self.log_weights.max()
        w = np.exp(z)
        return w / w.sum()

    def predict(self, x) -> Prediction:
        """Per-kernel values, their mixture and its sign; ValueError on a bad ``x`` before any state changes."""
        x, xsq = check_features(x, self.config.dim)
        zs = self.features(x)
        vals = np.vecdot(self.theta, zs)
        if not np.isfinite(vals).all():
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
        return RoundRecord.of(self.t, pred, y, losses)

    def summary(self) -> dict:
        """Report cells of a finished run: the baseline adds none."""
        return {}
