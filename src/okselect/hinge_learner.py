"""Budgeted online kernel selection for the hinge loss.

Per kernel, the learner runs optimistic mirror descent: the prediction-side
hypothesis is the ball-constrained iterate minus the learning rate times a
reservoir-based guess of the next gradient. On a margin violation the
update either reuses a nearby buffered example as a proxy anchor (buffer
unchanged), or draws a Bernoulli coin whose success probability is
||grad - guess||^2 / (||grad - guess||^2 + ||guess||^2) and applies an
importance-weighted combination of the true gradient and the guess. A
successful draw against a full buffer first discards the newest half of the
buffer (or restarts, if configured), projects the survivor onto the ball,
and then steps. Predictions across kernels are mixed by an adaptive Hedge
distribution over the per-kernel hinge losses.

All examples live in one store of B + 1 slots: the reservoir archive and
the K buffers together hold at most B, and the last slot takes the round's
example, which is stored when ``update`` starts and freed when it ends
unless a buffer or the reservoir kept it. A full store raises, so the
memory budget is enforced by the data structure itself. The K iterates are
one (K, B + 1) coefficient matrix over the store's slots. Each round
computes the inner products and squared distances from x_t to every slot
once and derives all K kernel rows from them; the iterates' values, the
reservoir guesses and the proxy search all read those rows.

Within a round the K per-kernel updates depend only on the shared round
inputs and on per-kernel random streams derived from the master seed, so
the outcome does not depend on the order in which kernels are processed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hedge import HedgeState
from .kernels import self_values
from .losses import HingeLoss, check_label
from .protocol import Prediction, RoundRecord, SelectorConfig, check_features, same_example
from .reservoir import Reservoir
from .rkhs import ExampleStore, KernelExpansions

__all__ = [
    "HingeSelectorConfig",
    "HingeKernelSelector",
    "allocate_budgets",
    "importance_weighted_coeffs",
    "BudgetError",
]


class BudgetError(ValueError):
    """The example budget cannot accommodate the configuration."""


@dataclass(kw_only=True)
class HingeSelectorConfig(SelectorConfig):
    """Configuration of the hinge-loss selector.

    ``budget`` is the total number of stored examples (reservoir archive
    plus all per-kernel buffers). ``horizon`` is the stream length, or an
    estimate of it in streaming mode (the archive slice depends on ln T);
    the estimate used is echoed into run reports by the bench layer. The
    ``"theory"`` rate is lambda_i = U * sqrt(K) / sqrt(2 B).
    """

    horizon: int
    reservoir_size: int = 10

    def __post_init__(self):
        super().__post_init__()
        if self.reservoir_size < 1:
            raise ValueError("reservoir size must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.budget < 2 * len(self.kernels) + 2:
            raise BudgetError(
                f"budget {self.budget} too small for K={len(self.kernels)} kernels"
            )

    def theory_rate(self) -> float:
        return self.radius * math.sqrt(len(self.kernels)) / math.sqrt(2.0 * self.budget)


def allocate_budgets(config: HingeSelectorConfig) -> tuple[int, int]:
    """Split the total budget into (archive cap, per-kernel buffer cap).

    archive cap B0 = min(ceil(M * (1 + ceil(ln T))), floor(B / 2)); the
    floor(B/2) cap keeps at least half of the budget for the kernel
    buffers. Per-kernel cap B_i = 2 * floor((B - B0) / (2K)), forced even
    so half-removal is always well defined.
    """
    expected_archive = math.ceil(config.reservoir_size * (1 + math.ceil(math.log(config.horizon))))
    archive_cap = min(expected_archive, config.budget // 2)
    per_kernel = 2 * ((config.budget - archive_cap) // (2 * len(config.kernels)))
    if per_kernel < 2:
        raise BudgetError(
            f"budget {config.budget} leaves per-kernel buffers of size {per_kernel}; "
            f"need at least 2 per kernel"
        )
    return archive_cap, per_kernel


def importance_weighted_coeffs(
    grad_coeffs: dict[int, float],
    guess_coeffs: dict[int, float],
    prob: float,
    accepted: bool,
) -> dict[int, float]:
    """Coefficients of (grad - guess)/prob * 1[accepted] + guess.

    This is the unbiased surrogate applied by the sampled branch:
    E[result] equals ``grad_coeffs`` whenever prob matches the acceptance
    probability.
    """
    out = dict(guess_coeffs)
    if accepted:
        for s, c in grad_coeffs.items():
            out[s] = out.get(s, 0.0) + c / prob
        for s, c in guess_coeffs.items():
            out[s] = out[s] - c / prob
    return {s: c for s, c in out.items() if c != 0.0}


class HingeKernelSelector:
    """Online kernel selection with per-kernel budgets, for the hinge loss."""

    def __init__(self, config: HingeSelectorConfig):
        self.config = config
        self.kernels = tuple(config.kernels)
        k = len(self.kernels)
        self.archive_cap, self.per_kernel_cap = allocate_budgets(config)
        self.radius = config.radius
        self.rate = config.learning_rate()
        self.loss = HingeLoss()

        seeds = np.random.SeedSequence(config.seed).spawn(k + 1)
        self._rngs = [np.random.default_rng(s) for s in seeds[:k]]
        # The archive and the K buffers hold at most B examples between
        # rounds; the extra slot is the round's example while in flight.
        self.store = ExampleStore(config.dim, capacity=config.budget + 1)
        self.reservoir = Reservoir(
            self.store,
            capacity=config.reservoir_size,
            archive_cap=self.archive_cap,
            rng=np.random.default_rng(seeds[k]),
            specs=self.kernels,
        )
        self.expansions = KernelExpansions(self.kernels, self.store)
        self.hedge = HedgeState(k)
        self.gap_sums = np.zeros(k)  # per-kernel alignment proxy accumulator
        self.removals = np.zeros(k, dtype=int)
        self.t = 0
        self._last: Prediction | None = None
        self._rows = None  # kernel rows of the last prediction, over every store slot

    def predict(self, x) -> Prediction:
        """f_{t,i}(x) = f'_i(x) - lambda_i * guess_i(x); mixture and sign.

        sign(0) is +1. Raises ValueError on a wrong-shaped or non-finite
        ``x`` before any state changes.
        """
        x, xsq = check_features(x, self.config.dim)
        rows = self.expansions.rows(x, xsq)
        guesses = self.reservoir.optimistic_value_many(rows)
        vals = np.vecdot(self.expansions.coef, rows) - self.rate * guesses
        p = self.hedge.distribution()
        agg = float(p @ vals)
        pred = Prediction(
            x=x,
            x_sqnorm=xsq,
            per_kernel=vals,
            guess_values=guesses,
            weights=p,
            aggregate=agg,
            label=1 if agg >= 0 else -1,
        )
        self._last = pred
        self._rows = rows
        return pred

    def update(self, x, y) -> RoundRecord:
        """Consume the round's true label; one call per round, after predict."""
        y = check_label(y)
        pred = self._last
        if pred is None or not same_example(pred.x, x):
            pred = self.predict(x)
        x = pred.x
        rows = self._rows
        self._last = self._rows = None
        self.t += 1
        k = len(self.kernels)
        ex = self.expansions
        # the round's example; freed at the end unless a buffer or the reservoir took it
        slot = self.store.add(x, y)

        branch = ["skip"] * k
        prob = np.full(k, np.nan)
        coin = np.full(k, -1, dtype=int)
        gap_sq_rec = np.zeros(k)
        removed = np.zeros(k, dtype=bool)
        losses = np.empty(k)
        kxx = self_values(self.kernels, pred.x_sqnorm)
        guess = None  # the reservoir's guess; the sample cannot change before observe

        for i, spec in enumerate(self.kernels):
            vi = pred.per_kernel[i]
            losses[i] = self.loss.value(vi, y)
            if y * vi >= 1.0:
                continue
            # margin violated: grad = -y k(x_t, .)
            guess_sq = self.reservoir.optimistic_sq_norm(i)
            gap_sq = max(kxx[i] + 2.0 * y * pred.guess_values[i] + guess_sq, 0.0)
            gap_sq_rec[i] = gap_sq
            self.gap_sums[i] += gap_sq
            gamma = gap_sq / math.sqrt(1.0 + self.gap_sums[i])

            buf = ex.buffers[i]
            if buf:
                # feature-space distances from x to the buffered examples
                kjj = self_values((spec,), self.store.sqnorm[buf])[0]
                dists = np.sqrt(np.maximum(kjj + kxx[i] - 2.0 * rows[i, buf], 0.0))
                j = int(np.argmin(dists))  # ties resolve to the earliest insertion
                if dists[j] <= gamma:
                    branch[i] = "proxy"
                    ex.step(i, [buf[j]], [self.rate * y])
                    continue

            branch[i] = "sampled"
            if guess is None:
                guess = self.reservoir.optimistic_coeffs()
            if gap_sq == 0.0:
                # grad coincides with the guess: exact deterministic step
                prob[i] = 0.0
                coin[i] = 0
                accepted = False
                p_i = 1.0  # unused
            else:
                p_i = gap_sq / (gap_sq + guess_sq)
                prob[i] = p_i
                accepted = bool(self._rngs[i].random() < p_i)
                coin[i] = 1 if accepted else 0
            if accepted and len(buf) == self.per_kernel_cap:
                if self.config.removal == "half":
                    ex.split_half(i)
                else:
                    ex.clear(i)
                ex.project(self.radius)
                self.removals[i] += 1
                removed[i] = True
            grad = {slot: -y} if accepted else {}
            tilde = importance_weighted_coeffs(grad, guess, p_i, accepted)
            ex.step(i, list(tilde), [-self.rate * c for c in tilde.values()])
            if accepted:
                ex.buffer_append(i, slot)
        # each kernel's step touched only its own row, so one projection serves all
        ex.project(self.radius)

        self.hedge.update(losses)
        accepted_by_reservoir = self.reservoir.observe(x, y, slot=slot)
        self.store.release_if_unreferenced(slot)

        return RoundRecord(
            t=self.t,
            label=pred.label,
            truth=int(y),
            mistake=pred.label != int(y),
            aggregate=pred.aggregate,
            per_kernel=pred.per_kernel,
            losses=losses,
            branch=branch,
            prob=prob,
            coin=coin,
            gap_sq=gap_sq_rec,
            removed=removed,
            reservoir_accepted=accepted_by_reservoir,
        )

    # -- diagnostics -----------------------------------------------------

    def alignment_proxies(self) -> np.ndarray:
        """Per-kernel accumulated ||grad - guess||^2 over violated rounds."""
        return self.gap_sums.copy()

    def removal_bounds(self, k1: float = 1.0) -> np.ndarray:
        """ceil(4 K A_i / (B k1)) per kernel: the expected-removals scale."""
        k = len(self.kernels)
        return np.ceil(4.0 * k * self.gap_sums / (self.config.budget * k1))

    def summary(self) -> dict:
        """Report cells of a finished run, after checking the invariants."""
        self.check_invariants()
        return {
            "alignment_proxy_min": float(self.gap_sums.min()),
            "removals_per_kernel": ";".join(str(int(v)) for v in self.removals),
            "archive_size": float(len(self.reservoir.archive)),
        }

    def check_invariants(self):
        """Hard budget/norm invariants; raises AssertionError on violation.

        Between rounds every live store slot is in the archive or in a
        kernel buffer, so the caps below bound the store by B. Each
        kernel's coefficients are zero outside its buffer and the archive,
        so those memberships alone keep every slot an iterate needs alive.
        """
        ex = self.expansions
        archive = set(self.reservoir.archive)
        held = archive.union(*ex.buffers)
        assert held == set(np.flatnonzero(self.store.live).tolist()), "live slot outside archive and buffers"
        for i, buf in enumerate(ex.buffers):
            assert len(buf) <= self.per_kernel_cap, "buffer over budget"
            assert set(np.flatnonzero(ex.coef[i]).tolist()) <= archive.union(buf), "coefficient outside buffer and archive"
        assert np.all(np.sqrt(np.maximum(ex.sq_norms, 0.0)) <= self.radius + 1e-8), "iterate escaped the ball"
        assert len(self.reservoir.archive) <= self.archive_cap, "archive over cap"
        assert len(self.reservoir) <= self.config.reservoir_size, "reservoir over capacity"
