"""Budgeted online kernel selection for smooth losses.

All K kernels share a single buffer: every update anchors at the same
example for every kernel, so the learner stores B examples, not K * B, and
keeps the K kernel expansions as one (K, B) coefficient matrix over them.
Each round computes the inner products and squared distances from x_t to
the buffered rows once and derives every kernel's values from them. The
per-kernel gradient is the surrogate l'(f_t(x_t), y_t) * k_i(x_t, .) built
from the *aggregate* prediction's derivative d. When no nearby buffered
proxy exists, one shared coin with success probability |d| / (|d| + G1)
decides whether the round's example is stepped on (importance-weighted by
1/P) and inserted; a success against a full buffer first discards the
oldest half (keeping the newest), projects, and then steps. The Hedge
losses are the gap-to-best form: d * (v_i - min_j v_j) when d > 0, else
d * (v_i - max_j v_j), which is non-negative with at least one zero.

A failed coin performs no update at all; the asymmetry with the hinge
learner (which still steps on the guess) is deliberate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .hedge import HedgeState
from .hinge_learner import Prediction, RoundRecord
from .kernels import KernelSpec, kernel_rows, self_values, sq_distances
from .losses import LogisticLoss, check_label

__all__ = ["SmoothSelectorConfig", "SmoothKernelSelector", "pea_losses"]


@dataclass
class SmoothSelectorConfig:
    """Configuration of the smooth-loss selector.

    ``budget`` is the shared buffer size; odd values are floored to the
    next even value (half-removal needs an even buffer) with a warning.
    ``lambda_rule="scaled"`` gives lambda_i = lambda_scale * U / sqrt(B);
    ``"theory"`` gives lambda_i = 2 U / (G1 sqrt(B)).
    """

    kernels: tuple[KernelSpec, ...]
    dim: int
    budget: int
    loss: object = None  # smooth loss with value/deriv and G1/G2; default logistic
    ball_radius: float | None = None
    lambda_scale: float = 1.0
    lambda_rule: str = "scaled"
    removal: str = "half"
    seed: int = 0

    def __post_init__(self):
        if not self.kernels:
            raise ValueError("need at least one kernel")
        if self.budget < 2:
            raise ValueError("budget must be >= 2")
        if self.budget % 2 != 0:
            warnings.warn(
                f"buffer budget {self.budget} is odd; using {self.budget - 1} "
                "(half-removal needs an even buffer)",
                stacklevel=2,
            )
            self.budget -= 1
        if self.loss is None:
            self.loss = LogisticLoss()
        if self.removal not in ("half", "restart"):
            raise ValueError("removal must be 'half' or 'restart'")
        if self.lambda_rule not in ("scaled", "theory"):
            raise ValueError("lambda_rule must be 'scaled' or 'theory'")

    @property
    def radius(self) -> float:
        return float(self.ball_radius) if self.ball_radius is not None else math.sqrt(self.budget)

    def learning_rate(self) -> float:
        if self.lambda_rule == "theory":
            return 2.0 * self.radius / (self.loss.G1 * math.sqrt(self.budget))
        return self.lambda_scale * self.radius / math.sqrt(self.budget)


def pea_losses(values: np.ndarray, d: float) -> np.ndarray:
    """Hedge losses from per-kernel values and the aggregate derivative.

    d > 0 charges each kernel its gap to the smallest value, d < 0 the gap
    to the largest; every entry is >= 0 and at least one is exactly 0.
    """
    values = np.asarray(values, dtype=float)
    if d > 0:
        return d * (values - values.min())
    if d < 0:
        return d * (values - values.max())
    return np.zeros_like(values)


class SharedBuffer:
    """The B examples all K kernel expansions share, and the expansions.

    Rows are kept oldest first in ``X[:n]``, with their squared norms in
    ``row_sqnorms[:n]``. Kernel i's function is
    f_i = sum_j coef[i, j] k_i(x_j, .), and ``sq_norms[i]`` caches
    ||f_i||^2. Columns from ``n`` on are zero.
    """

    def __init__(self, num_kernels: int, dim: int, budget: int):
        self.X = np.zeros((budget, dim))
        self.row_sqnorms = np.zeros(budget)
        self.coef = np.zeros((num_kernels, budget))
        self.sq_norms = np.zeros(num_kernels)
        self.n = 0

    def __len__(self) -> int:
        return self.n

    def append(self, x, x_sqnorm: float) -> int:
        j = self.n
        self.X[j] = x
        self.row_sqnorms[j] = x_sqnorm
        self.n += 1
        return j

    def keep_newest_half(self):
        """Shift the newest half of an even, full buffer to the front."""
        n = self.n
        h = n // 2
        self.X[:h] = self.X[h:n]
        self.row_sqnorms[:h] = self.row_sqnorms[h:n]
        self.coef[:, :h] = self.coef[:, h:n]
        self.coef[:, h:n] = 0.0
        self.n = h

    def clear(self):
        self.coef[:, : self.n] = 0.0
        self.sq_norms[:] = 0.0
        self.n = 0


class SmoothKernelSelector:
    """Online kernel selection with one shared buffer, for smooth losses."""

    def __init__(self, config: SmoothSelectorConfig):
        self.config = config
        self.kernels = tuple(config.kernels)
        self.loss = config.loss
        self.radius = config.radius
        self.rate = config.learning_rate()
        self.budget = config.budget
        k = len(self.kernels)
        if k > config.dim:
            warnings.warn(
                f"K={k} exceeds the feature dimension d={config.dim}; the memory "
                "reduction behind the shared buffer assumes K <= d",
                stacklevel=2,
            )
        theory_cap = math.sqrt(max(self.budget - (4.0 / 3.0) * math.log(100.0), 0.0)) / (
            8.0 * self.loss.G2
        )
        if self.radius > theory_cap:
            warnings.warn(
                f"ball radius {self.radius:.3g} exceeds the analysed range "
                f"{theory_cap:.3g}; keeping the configured value",
                stacklevel=2,
            )

        self.store = SharedBuffer(k, config.dim, self.budget)
        self._gaussian = any(spec.kind == "gaussian" for spec in self.kernels)
        self.hedge = HedgeState(k)
        self.rng = np.random.default_rng(np.random.SeedSequence(config.seed))
        self.deriv_sum = 0.0  # sum of |l'(f_t(x_t), y_t)| over rounds
        self.cum_loss = 0.0  # sum of l(f_t(x_t), y_t) over rounds
        self.removals = 0
        self.t = 0
        self._last: Prediction | None = None
        self._cache = None  # (dots, sqdist, rows) of the last prediction

    def _sqdist(self, dots, z_sqnorm):
        """Clipped squared distances from the buffered rows to z, given <x_j, z>."""
        return sq_distances(dots, self.store.row_sqnorms[: self.store.n], z_sqnorm)

    def predict(self, x) -> Prediction:
        """Per-kernel values f_i(x), their Hedge mixture and its sign (sign(0) is +1).

        Raises ValueError on a wrong-shaped or non-finite ``x`` before any
        state changes.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (self.config.dim,):
            raise ValueError(f"expected a ({self.config.dim},) feature vector, got shape {x.shape}")
        xsq = float(x @ x)
        if not math.isfinite(xsq):
            raise ValueError("feature vector is not finite or its squared norm overflows")
        buf = self.store
        dots = buf.X[: buf.n] @ x
        sqdist = self._sqdist(dots, xsq) if self._gaussian else None
        rows = kernel_rows(self.kernels, dots, sqdist)
        vals = np.vecdot(buf.coef[:, : buf.n], rows)
        p = self.hedge.distribution()
        agg = float(p @ vals)
        pred = Prediction(
            x=x,
            x_sqnorm=xsq,
            per_kernel=vals,
            guess_values=np.zeros(len(self.kernels)),
            weights=p,
            aggregate=agg,
            label=1 if agg >= 0 else -1,
        )
        self._last = pred
        self._cache = (dots, sqdist, rows)
        return pred

    def _values_at_row(self, j: int) -> np.ndarray:
        """f_i(x_j) for every kernel, at buffered row j."""
        buf = self.store
        dots = buf.X[: buf.n] @ buf.X[j]
        sqdist = self._sqdist(dots, buf.row_sqnorms[j]) if self._gaussian else None
        rows = kernel_rows(self.kernels, dots, sqdist)
        return np.vecdot(buf.coef[:, : buf.n], rows)

    def _step(self, c: float, j: int, fx, kjj):
        """f_i <- f_i + c k_i(x_j, .) for every kernel, then project onto the ball.

        ||f + c k(x,.)||^2 = ||f||^2 + 2 c f(x) + c^2 k(x, x), with f(x) =
        ``fx`` evaluated before the step and k(x, x) = ``kjj``.
        """
        buf = self.store
        buf.sq_norms += 2.0 * c * fx + c * c * kjj
        buf.coef[:, j] += c
        self._project()

    def _project(self):
        """Project each f_i onto {||f|| <= radius}; never grows a norm."""
        buf = self.store
        r2 = self.radius * self.radius
        for i in np.flatnonzero(buf.sq_norms > r2):
            buf.coef[i, : buf.n] *= self.radius / np.sqrt(buf.sq_norms[i])
            buf.sq_norms[i] = r2

    def _recompute_norms(self):
        """||f_i||^2 for every kernel from one Gram pass over the buffered rows."""
        buf = self.store
        X, sq = buf.X[: buf.n], buf.row_sqnorms[: buf.n]
        dots = X @ X.T
        grams = kernel_rows(self.kernels, dots, sq_distances(dots, sq, sq) if self._gaussian else None)
        for i, gram in enumerate(grams):
            beta = buf.coef[i, : buf.n]
            buf.sq_norms[i] = float(beta @ gram @ beta)

    def update(self, x, y) -> RoundRecord:
        y = check_label(y)
        x = np.asarray(x, dtype=float)
        pred = self._last
        if pred is None or not (pred.x is x or (pred.x.shape == x.shape and np.array_equal(pred.x, x))):
            pred = self.predict(x)
        dots, sqdist, rows = self._cache
        self._last = self._cache = None
        self.t += 1
        k = len(self.kernels)
        buf = self.store

        d = self.loss.deriv(pred.aggregate, y)
        if not math.isfinite(d):
            raise FloatingPointError(f"non-finite loss derivative at round {self.t}")
        ad = abs(d)

        branch = "skip"
        prob = np.nan
        coin = -1
        did_remove = False

        if ad > 0.0:
            gamma = math.sqrt(2.0 * math.log(k)) / math.sqrt(1.0 + self.deriv_sum + ad)
            anchor = None
            if buf.n:
                if sqdist is None:
                    sqdist = self._sqdist(dots, pred.x_sqnorm)
                # The Euclidean-nearest row is the nearest in every Gaussian
                # feature space at once; ties go to the oldest row.
                j = int(np.argmin(sqdist))
                # Its feature-space distance to x comes from x_j - x itself,
                # so that an exact duplicate is at distance exactly 0.
                xj = buf.X[j]
                diff = xj - x
                k_jx, k_jj, k_xx = kernel_rows(
                    self.kernels,
                    np.array([xj @ x, buf.row_sqnorms[j], pred.x_sqnorm]),
                    np.array([diff @ diff, 0.0, 0.0]),
                ).T
                if math.sqrt(max((k_jj + k_xx - 2.0 * k_jx).max(), 0.0)) <= gamma:
                    anchor = j
            if anchor is not None:
                branch = "proxy"
                self._step(-self.rate * d, anchor, self._values_at_row(anchor), k_jj)
            else:
                branch = "sampled"
                prob = ad / (ad + self.loss.G1)
                accepted = bool(self.rng.random() < prob)
                coin = 1 if accepted else 0
                if accepted:
                    fx = pred.per_kernel
                    if buf.n == self.budget:
                        if self.config.removal == "half":
                            buf.keep_newest_half()
                            self._recompute_norms()
                            self._project()
                        else:
                            buf.clear()
                        # f_i(x) over the kept rows, after the projection
                        fx = np.vecdot(buf.coef[:, : buf.n], rows[:, self.budget - buf.n :])
                        self.removals += 1
                        did_remove = True
                    j = buf.append(x, pred.x_sqnorm)
                    self._step(-self.rate * d / prob, j, fx, self_values(self.kernels, pred.x_sqnorm))

        losses = pea_losses(pred.per_kernel, d)
        self.hedge.update(losses)
        self.deriv_sum += ad
        self.cum_loss += self.loss.value(pred.aggregate, y)

        return RoundRecord(
            t=self.t,
            label=pred.label,
            truth=int(y),
            mistake=pred.label != int(y),
            aggregate=pred.aggregate,
            per_kernel=pred.per_kernel,
            losses=losses,
            branch=[branch] * k,
            prob=np.full(k, prob),
            coin=np.full(k, coin, dtype=int),
            gap_sq=np.zeros(k),
            removed=np.full(k, did_remove),
            extras={"deriv": d},
        )

    # -- diagnostics -----------------------------------------------------

    def removal_bound(self, delta: float = 0.01) -> float:
        """ceil(4 G2 L / ((B - (4/3) ln(1/delta)) G1)): the removals scale."""
        denom = (self.budget - (4.0 / 3.0) * math.log(1.0 / delta)) * self.loss.G1
        if denom <= 0:
            return math.inf
        return math.ceil(4.0 * self.loss.G2 * self.cum_loss / denom)

    def summary(self) -> dict:
        """Report cells of a finished run, after checking the invariants."""
        self.check_invariants()
        return {"removals_per_kernel": ";".join([str(int(self.removals))] * len(self.kernels))}

    def check_invariants(self):
        """Hard budget/norm invariants; raises AssertionError on violation."""
        assert len(self.store) <= self.budget, "buffer over budget"
        norms = np.sqrt(np.maximum(self.store.sq_norms, 0.0))
        assert np.all(norms <= self.radius + 1e-8), "iterate escaped the ball"
