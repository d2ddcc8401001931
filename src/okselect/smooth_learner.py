"""Budgeted online kernel selection for smooth losses.

All K kernels share a single buffer: every update anchors at the same
example for every kernel, so the learner stores B examples, not K * B. The
examples live in an :class:`~okselect.rkhs.ExampleStore` of B slots and
the K kernel expansions in a :class:`~okselect.rkhs.KernelExpansions`, a
(K, B) coefficient matrix over those slots; the learner itself keeps the
buffer's insertion order and removes through ``KernelExpansions.drop``,
for all K kernels at once. Each round computes the inner products and
squared distances from x_t to the stored rows once and derives every
kernel's values from them. The per-kernel gradient is the surrogate
l'(f_t(x_t), y_t) * k_i(x_t, .) built from the *aggregate* prediction's
derivative d. When no nearby buffered proxy exists, one shared coin with
success probability |d| / (|d| + G1) decides whether the round's example
is stepped on (importance-weighted by 1/P) and inserted; a success against
a full buffer first discards the oldest half (keeping the newest),
projects, and then steps. A step adds c k_i(x_j, .) to every iterate, so
each squared norm changes by 2 c f_i(x_j) + c^2 k_i(x_j, x_j), from the
round's values (a sampled step) or the iterates read at the proxy anchor.
The proxy test reads k_i(x_j, x_j) from the expansions' self-similarity
cache and evaluates each kernel once, at the pair (x_j, x_t).
The Hedge losses are the gap-to-best form:
d * (v_i - min_j v_j) when d > 0, else d * (v_i - max_j v_j), which is
non-negative with at least one zero.

A failed coin performs no update at all; the asymmetry with the hinge
learner (which still steps on the guess) is deliberate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .hedge import HedgeState
from .kernels import KernelGrid, kernel_rows, pairwise, self_values, sq_distances
from .losses import LogisticLoss
from .protocol import Prediction, RoundRecord, SelectorConfig, check_features, mix, pending
from .rkhs import ExampleStore, KernelExpansions

__all__ = ["SmoothSelectorConfig", "SmoothKernelSelector", "pea_losses"]


@dataclass(kw_only=True)
class SmoothSelectorConfig(SelectorConfig):
    """Configuration of the smooth-loss selector.

    ``budget`` is the shared buffer size; odd values are floored to the
    next even value (half-removal needs an even buffer) with a warning.
    The ``"theory"`` rate is lambda_i = 2 U / (G1 sqrt(B)).
    """

    loss: object = None  # smooth loss with value/deriv and G1/G2; default logistic

    def __post_init__(self):
        super().__post_init__()
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

    def theory_rate(self) -> float:
        return 2.0 * self.radius / (self.loss.G1 * math.sqrt(self.budget))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def pea_losses(values: np.ndarray, d: float) -> np.ndarray:
    """Hedge losses from per-kernel values and the aggregate derivative.

    d > 0 charges each kernel its gap to the smallest value, d < 0 the gap
    to the largest; every entry is >= 0 and at least one is exactly 0.
    """
    values = np.asarray(values, dtype=float)
    # the builtins read a K-vector's extreme faster than numpy, and exactly
    if d > 0:
        return d * (values - min(values.tolist()))
    if d < 0:
        return d * (values - max(values.tolist()))
    return np.zeros_like(values)


class SmoothKernelSelector:
    """Online kernel selection with one shared buffer, for smooth losses."""

    def __init__(self, config: SmoothSelectorConfig):
        self.config = config
        self.kernels = KernelGrid(config.kernels)  # shared with the expansions
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

        # Every live slot is buffered, so the store's size is the buffer's.
        self.store = ExampleStore(config.dim, capacity=self.budget)
        self.expansions = KernelExpansions(self.kernels, self.store)
        self._order = np.zeros(self.budget, dtype=np.intp)  # buffered slots, oldest first
        self._sqrt_2lnk = math.sqrt(2.0 * math.log(k))  # the proxy radius's numerator
        self.hedge = HedgeState(k)
        # A round's record holds one value for every kernel, so the arrays of
        # a round that draws no coin are built once here and shared, read-only.
        self._coins = {c: _read_only(np.full(k, c, dtype=int)) for c in (-1, 0, 1)}
        self._removed = (_read_only(np.zeros(k, dtype=bool)), _read_only(np.ones(k, dtype=bool)))
        self._zeros = _read_only(np.zeros(k))  # the gaps: this learner has no guess
        self._no_prob = _read_only(np.full(k, np.nan))
        self.rng = np.random.default_rng(np.random.SeedSequence(config.seed))
        self.deriv_sum = 0.0  # sum of |l'(f_t(x_t), y_t)| over rounds
        self.cum_loss = 0.0  # sum of l(f_t(x_t), y_t) over rounds
        self.removals = 0
        self.t = 0
        self._last: Prediction | None = None  # its cache: (dots, sqdist, rows) over every store slot

    @property
    def buffer(self) -> np.ndarray:
        """The buffered store slots, oldest first."""
        return self._order[: len(self.store)]

    def predict(self, x) -> Prediction:
        """Per-kernel values f_i(x), their Hedge mixture and its sign (sign(0) is +1).

        Raises ValueError on a wrong-shaped or non-finite ``x`` before any
        state changes.
        """
        x, xsq = check_features(x, self.config.dim)
        ex = self.expansions
        # The distances feed only Gaussian kernels and the proxy search, so a
        # polynomial grid computes them in update, when a proxy is looked for.
        dots, sqdist = pairwise(self.store.X, self.store.sqnorm, x, xsq, self.kernels.gaussian)
        rows = kernel_rows(self.kernels, dots, sqdist)
        vals = np.vecdot(ex.coef, rows)
        self._last = pred = mix(x, xsq, vals, self.hedge.distribution(), (dots, sqdist, rows))
        return pred

    def update(self, x, y) -> RoundRecord:
        y, pred = pending(self, x, y)
        x = pred.x
        dots, sqdist, rows = pred.cache
        k = len(self.kernels)
        store, ex, buffer = self.store, self.expansions, self.buffer

        d = self.loss.deriv(pred.aggregate, y)
        if not math.isfinite(d):
            raise FloatingPointError(f"non-finite loss derivative at round {self.t}")
        ad = abs(d)

        branch = "skip"
        prob = self._no_prob
        coin = -1
        did_remove = False

        if ad > 0.0:
            gamma = self._sqrt_2lnk / math.sqrt(1.0 + self.deriv_sum + ad)
            anchor = k_xx = None
            if len(buffer):
                if sqdist is None:
                    sqdist = sq_distances(dots, store.sqnorm, pred.x_sqnorm)
                # The Euclidean-nearest buffered example is the nearest in
                # every Gaussian feature space at once; ties go to the oldest.
                j = buffer[sqdist[buffer].argmin()]
                # Its feature-space distance to x comes from x_j - x itself,
                # so that an exact duplicate is at distance exactly 0. The
                # kernels see 0-d arrays, not numpy scalars, whose power can
                # differ in the last bit from the array power predict uses.
                xj = store.X[j]
                if self.kernels.gaussian:
                    diff = xj - x
                    k_jx = kernel_rows(self.kernels, np.asarray(xj @ x), np.asarray(diff @ diff))
                else:
                    k_jx = kernel_rows(self.kernels, np.asarray(xj @ x))
                k_jj = ex.self_k[:, j]
                k_xx = self_values(self.kernels, pred.x_sqnorm)
                if math.sqrt(max((k_jj + k_xx - 2.0 * k_jx).max(), 0.0)) <= gamma:
                    anchor = j
            if anchor is not None:
                branch = "proxy"
                c = -self.rate * d
                ex.step(anchor, c, 2.0 * c * ex.values_at(anchor) + c * c * k_jj)
                ex.project(self.radius)
            else:
                branch = "sampled"
                q = ad / (ad + self.loss.G1)
                prob = np.full(k, q)
                accepted = bool(self.rng.random() < q)
                coin = 1 if accepted else 0
                if accepted:
                    fx = pred.per_kernel
                    if len(buffer) == self.budget:
                        # half-removal drops the oldest half; a restart drops all
                        h = self.budget // 2 if self.config.removal == "half" else self.budget
                        ex.drop(slice(None), buffer[:h], keep=buffer[h:])
                        ex.project(self.radius)
                        self._order[: self.budget - h] = buffer[h:]
                        # f_i(x) over the kept examples, after the projection
                        fx = np.vecdot(ex.coef, rows)
                        self.removals += 1
                        did_remove = True
                    if k_xx is None:
                        k_xx = self_values(self.kernels, pred.x_sqnorm)
                    slot = ex.add(x, y, pred.x_sqnorm, k_xx)
                    store.incref(slot)
                    self._order[len(store) - 1] = slot
                    c = -self.rate * d / q
                    ex.step(slot, c, 2.0 * c * fx + c * c * k_xx)
                    ex.project(self.radius)

        losses = pea_losses(pred.per_kernel, d)
        self.hedge.update(losses)
        self.deriv_sum += ad
        self.cum_loss += self.loss.value(pred.aggregate, y)

        return RoundRecord.of(
            self.t,
            pred,
            y,
            losses,
            branch=[branch] * k,
            prob=prob,
            coin=self._coins[coin],
            gap_sq=self._zeros,
            removed=self._removed[did_remove],
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
        """Hard budget/norm invariants; raises AssertionError on violation.

        Between rounds the live store slots are exactly the buffered ones,
        each held by one reference, and every coefficient outside the buffer
        is zero, so the buffer alone bounds the memory by B.
        """
        store, ex, buffer = self.store, self.expansions, self.buffer
        assert len(store) <= self.budget, "buffer over budget"
        assert sorted(buffer.tolist()) == np.flatnonzero(store.live).tolist(), "live slots are not the buffer"
        assert np.all(store.refs[buffer] == 1), "buffered slot not held exactly once"
        outside = np.ones(store.capacity, dtype=bool)
        outside[buffer] = False
        assert not ex.coef[:, outside].any(), "coefficient outside the buffer"
        assert np.all(np.sqrt(np.maximum(ex.sq_norms, 0.0)) <= self.radius + 1e-8), "iterate escaped the ball"
        ex.check_self_k()
