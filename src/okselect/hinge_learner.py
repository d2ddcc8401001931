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
one (K, B + 1) coefficient matrix over the store's slots, and the K
buffers, which the learner keeps itself, are the rows of a (K, B + 1) slot
array in insertion order; removals go through ``KernelExpansions.drop``.
Each round computes the inner products and squared distances from x_t to
every slot once (in ``predict``) and derives all K kernel rows from them;
the iterates' values, the reservoir guesses and the proxy search all read
those rows.

The update runs for all K kernels at once, as (K,) array operations: the
margin test, the gaps, the proxy search over one (K, n) matrix of
feature-space distances, the coin probabilities and the sampled steps.
A sampled step changes each iterate by a multiple of the guess and of
k(x_t, .), so its change of squared norm is closed-form in f_i(x_t), the
guess's value at x_t, its squared norm and <f_i, guess>, which the
reservoir's label sums give; it evaluates no kernel. A proxy step adds a
multiple c of k(x_j, .) for a buffered x_j, so its change is
2 c f_i(x_j) + c^2 k_i(x_j, x_j), from one pass over the store at x_j.
Kernel passes happen only in ``predict``, in that rare proxy step, when a
removal recomputes a norm, and when the reservoir's sample changes.

Within a round the K per-kernel updates depend only on the shared round
inputs and on per-kernel random streams derived from the master seed, so
the outcome does not depend on the order in which kernels are processed;
the coins are drawn in kernel order, each from its kernel's own stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hedge import HedgeState
from .kernels import KernelGrid, self_values
from .losses import HingeLoss
from .protocol import Prediction, RoundRecord, SelectorConfig, check_features, mix, pending
from .reservoir import Reservoir
from .rkhs import ExampleStore, KernelExpansions

__all__ = [
    "HingeSelectorConfig",
    "HingeKernelSelector",
    "allocate_budgets",
    "surrogate_weights",
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
    bench passes the dataset's length. A budget that :func:`allocate_budgets`
    cannot split raises BudgetError here. The theorem's rate
    lambda_i = U * sqrt(K) / sqrt(2 B) is ``lambda_scale`` = sqrt(K / 2).
    """

    horizon: int
    reservoir_size: int = 10

    def __post_init__(self):
        super().__post_init__()
        if self.reservoir_size < 1:
            raise ValueError("reservoir size must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        allocate_budgets(self)


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


def surrogate_weights(y: float, prob, accepted) -> tuple[np.ndarray, np.ndarray]:
    """The importance-weighted surrogate gradient of several kernels at once.

    With grad = -y k(x, .), each kernel's surrogate
    (grad - guess)/p 1[accepted] + guess is gamma guess + delta k(x, .), where
    gamma = 1 - a/p and delta = -y a/p (a = 1 if the coin was accepted,
    else 0). Returns the (n,) arrays gamma and delta; ``prob`` is read only
    where the coin was accepted.
    """
    ratio = accepted / np.where(accepted, prob, 1.0)
    return 1.0 - ratio, -y * ratio


class HingeKernelSelector:
    """Online kernel selection with per-kernel budgets, for the hinge loss.

    Kernel i's buffer is ``buffer_slots[i, :buffer_sizes[i]]``, oldest
    first. A slot whose coefficient was stepped to exactly zero stays in
    it: the budget counts membership, not nonzero-ness.
    """

    def __init__(self, config: HingeSelectorConfig):
        self.config = config
        self.kernels = KernelGrid(config.kernels)  # shared with the reservoir and the expansions
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
        self.buffer_slots = np.zeros((k, self.store.capacity), dtype=np.intp)
        self.buffer_sizes = np.zeros(k, dtype=np.intp)
        self.hedge = HedgeState(k)
        self.gap_sums = np.zeros(k)  # per-kernel alignment proxy accumulator
        self.removals = np.zeros(k, dtype=int)
        self.t = 0
        self._last: Prediction | None = None  # its cache: (kernel rows over every slot, f_i(x) before the guess, guesses)

    @property
    def buffers(self) -> list[np.ndarray]:
        """Each kernel's buffer as a view of its slots, in insertion order."""
        return [self.buffer_slots[i, :n] for i, n in enumerate(self.buffer_sizes)]

    def predict(self, x) -> Prediction:
        """f_{t,i}(x) = f'_i(x) - lambda_i * guess_i(x); mixture and sign.

        sign(0) is +1. Raises ValueError on a wrong-shaped or non-finite
        ``x`` before any state changes.
        """
        x, xsq = check_features(x, self.config.dim)
        rows = self.expansions.rows(x, xsq)
        guesses = self.reservoir.optimistic_value_many(rows)
        fx = np.vecdot(self.expansions.coef, rows)
        self._last = pred = mix(x, xsq, fx - self.rate * guesses, self.hedge.distribution(), (rows, fx, guesses))
        return pred

    def update(self, x, y) -> RoundRecord:
        """Consume the round's true label; one call per round, after predict."""
        y, pred = pending(self, x, y)
        rows, fx, guesses = pred.cache
        ex, res = self.expansions, self.reservoir
        # the round's example; freed at the end unless a buffer or the reservoir took it
        kxx = self_values(self.kernels, pred.x_sqnorm)
        slot = ex.add(pred.x, y, pred.x_sqnorm, kxx)
        res.track(slot, guesses)

        margins = y * pred.per_kernel
        losses = np.maximum(1.0 - margins, 0.0)
        violated = margins < 1.0
        # where the margin is violated, grad = -y k(x_t, .)
        guess_sq = res.optimistic_sq_norms()
        gap_sq = np.maximum(kxx + 2.0 * y * guesses + guess_sq, 0.0) * violated
        self.gap_sums += gap_sq
        gamma = gap_sq / np.sqrt(1.0 + self.gap_sums)
        proxy = violated & (self.buffer_sizes > 0)
        if np.count_nonzero(proxy):
            proxy = self._proxy_steps(proxy, rows, kxx, gamma, y)
        sampled = violated & ~proxy

        # a zero gap means grad coincides with the guess: an exact step, no coin
        drawn = sampled & (gap_sq > 0.0)
        prob = np.where(sampled, 0.0, np.nan)
        np.divide(gap_sq, gap_sq + guess_sq, out=prob, where=drawn)
        accepted = np.zeros(len(self.kernels), dtype=bool)
        for i in drawn.nonzero()[0].tolist():
            accepted[i] = self._rngs[i].random() < prob[i]
        removed = accepted & (self.buffer_sizes == self.per_kernel_cap)
        if np.count_nonzero(removed):
            kept = self.per_kernel_cap // 2 if self.config.removal == "half" else 0
            for i in removed.nonzero()[0].tolist():
                if not kept:  # a restart also drops the mass on archive anchors
                    ex.coef[i] = 0.0
                ex.drop(slice(i, i + 1), self.buffer_slots[i, kept : self.per_kernel_cap])
            self.buffer_sizes[removed] = kept
            self.removals += removed
            ex.project(self.radius)
            fx[removed] = np.vecdot(ex.coef[removed], rows[removed])
        if np.count_nonzero(sampled):
            self._sampled_steps(sampled, accepted, prob, slot, y, fx, kxx, guesses, guess_sq)
            joined = np.count_nonzero(accepted)
            if joined:
                self.store.incref(slot, joined)
                self.buffer_slots[accepted, self.buffer_sizes[accepted]] = slot
                self.buffer_sizes += accepted
        # each kernel's step touched only its own row, so one projection serves all
        ex.project(self.radius)

        self.hedge.update(losses)
        accepted_by_reservoir = res.observe(slot)
        self.store.release_if_unreferenced(slot)

        return RoundRecord.of(
            self.t,
            pred,
            y,
            losses,
            branch=[("proxy" if p else "sampled") if v else "skip" for v, p in zip(violated.tolist(), proxy.tolist())],
            prob=prob,
            coin=np.where(sampled, accepted, -1),
            gap_sq=gap_sq,
            removed=removed,
            reservoir_accepted=accepted_by_reservoir,
        )

    def _proxy_steps(self, candidates, rows, kxx, gamma, y) -> np.ndarray:
        """Step each candidate kernel whose nearest buffered example lies within gamma.

        One (K, n) matrix holds the feature-space distances from x to every
        buffered example of every kernel, from the round's kernel rows and
        the examples' cached self-similarities, read through the buffers'
        slot arrays. Returns the (K,) mask of kernels that took the proxy
        step.
        """
        ex = self.expansions
        sizes = self.buffer_sizes
        slots = self.buffer_slots[:, : sizes.max()]
        at = ex.row_starts + slots  # flat positions in the (K, capacity) arrays
        dists = np.sqrt(np.maximum(ex.self_k.take(at) + kxx[:, None] - 2.0 * rows.take(at), 0.0))
        dists[np.arange(slots.shape[1]) >= sizes[:, None]] = np.inf
        proxy = candidates & (dists.min(axis=1) <= gamma)
        for i in proxy.nonzero()[0].tolist():
            j = slots[i, dists[i].argmin()]  # ties resolve to the earliest insertion
            c = np.zeros(len(sizes))  # only kernel i steps
            c[i] = self.rate * y
            ex.step(j, c, 2.0 * c * ex.values_at(j) + c * c * ex.self_k[:, j])
        return proxy

    def _sampled_steps(self, sampled, accepted, prob, slot, y, fx, kxx, guess_values, guess_sq):
        """Step every sampled kernel by -rate times its importance-weighted surrogate.

        Kernel i's step is c_i = u_i g + w_i k_i(x, .), with g the guess and
        (u_i, w_i) = -rate (gamma_i, delta_i) from :func:`surrogate_weights`.
        So ||f_i + c_i||^2 - ||f_i||^2 is
        u_i (2 <f_i, g> + u_i ||g||^2 + 2 w_i g(x)) + w_i (2 f_i(x) + w_i k_i(x, x)),
        where <f_i, g> comes from the reservoir's label sums, f_i(x) and g(x)
        from predict, and ||g||^2 from the reservoir's cache. No kernel is
        evaluated. The other kernels get a zero step.
        """
        res = self.reservoir
        m = len(res)
        gamma, delta = surrogate_weights(y, prob, accepted)
        scale = -self.rate * sampled
        u, w = scale * gamma, scale * delta
        f_dot_g = -np.vecdot(self.expansions.coef, res.label_sums) / m if m else 0.0
        changes = u * (2.0 * f_dot_g + u * guess_sq + 2.0 * w * guess_values) + w * (2.0 * fx + w * kxx)
        guess = -res.store.label[res.sample] / m if m else np.zeros(0)  # g's coefficients on the sample
        C = np.empty((len(u), m + 1))  # each step's coefficients on the sample, then on x
        C[:, :m] = np.multiply.outer(u, guess)
        C[:, m] = w
        self.expansions.step(np.append(res.sample, slot), C, changes)

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
        buffers = [buf.tolist() for buf in self.buffers]
        held = archive.union(*buffers)
        assert held == set(np.flatnonzero(self.store.live).tolist()), "live slot outside archive and buffers"
        for i, buf in enumerate(buffers):
            assert len(buf) <= self.per_kernel_cap, "buffer over budget"
            assert set(np.flatnonzero(ex.coef[i]).tolist()) <= archive.union(buf), "coefficient outside buffer and archive"
        assert np.all(np.sqrt(np.maximum(ex.sq_norms, 0.0)) <= self.radius + 1e-8), "iterate escaped the ball"
        ex.check_self_k()
        assert len(self.reservoir.archive) <= self.archive_cap, "archive over cap"
        assert len(self.reservoir) <= self.config.reservoir_size, "reservoir over capacity"
