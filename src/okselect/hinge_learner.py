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
example. ``update`` stores it holding the round's own reference and
releases that at the end, which frees the slot unless a buffer or the
reservoir took it. A full store raises, so the memory budget is enforced
by the data structure itself. The K iterates are one (K, B + 1)
coefficient matrix over the store's slots, and the K buffers, which the
learner keeps itself, are the rows of a (K, B + 1) slot array in insertion
order; removals go through ``KernelExpansions.drop``. A kernel's removals
keep the oldest half of its buffer and the archive only grows, so its kept
support often repeats; the learner hands each kernel's last removal record
back to ``drop``, which then reuses that removal's Gram matrix.
Each round computes the inner products and squared distances from x_t to
every slot the store has ever handed out once (in ``predict``) and derives
all K kernel rows from them; the iterates' values, the reservoir guesses
and the proxy search all read those rows. The slots never handed out carry
no coefficient, so their columns are zero and cost no kernel evaluation.

The update charges Hedge first, so losses it rejects change no state. Its
per-kernel bookkeeping runs on Python floats, kernel by kernel: the
margins, losses, gaps, proxy thresholds, coin probabilities and draws, the
removal mask, the surrogate weights, the closed-form norm changes and the
buffer joins. K is small, so a numpy call on a (K,) vector would cost more
than its arithmetic. numpy does the work over store slots: the kernel rows
and their dot products, the proxy search's (K, n) matrix of squared
feature-space distances, the coefficient steps and the removals. Each
scalar takes the operations and association that the (K,) array
expression would, down to the bool factors that give the kernels outside
a branch signed-zero terms, so the results are the same to the bit.

A sampled step changes each iterate by a multiple of the guess and of
k(x_t, .), so its change of squared norm is closed-form in f_i(x_t), the
guess's value at x_t, its squared norm and <f_i, guess>, which the
reservoir's label sums give; it evaluates no kernel. A proxy step adds a
multiple c of k(x_j, .) for a buffered x_j, so its change is
2 c f_i(x_j) + c^2 k_i(x_j, x_j), from one pass over the store at x_j.
Kernel passes happen only in ``predict``, in that rare proxy step, when a
removal recomputes a norm over a support that is not the kernel's last
removal's, and when the reservoir's sample changes.

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
from .kernels import KernelGrid, _count, self_values
from .losses import HingeLoss
from .protocol import Prediction, RoundRecord, SelectorConfig, check_features, check_self_values, mix, pending
from .reservoir import Reservoir
from .rkhs import ExampleStore, KernelExpansions

__all__ = [
    "HingeSelectorConfig",
    "HingeKernelSelector",
    "allocate_budgets",
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
    bench passes the dataset's length. It and ``reservoir_size`` are ints
    >= 1 within the float range. A budget that :func:`allocate_budgets`
    cannot split raises BudgetError here. The theorem's rate
    lambda_i = U * sqrt(K) / sqrt(2 B) is ``lambda_scale`` = sqrt(K / 2).
    """

    horizon: int
    reservoir_size: int = 10

    def __post_init__(self):
        super().__post_init__()
        self.reservoir_size = _count(self.reservoir_size, "reservoir size")
        self.horizon = _count(self.horizon, "horizon")
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


def _surrogate_weights(y: float, prob: float, accepted: bool) -> tuple[float, float]:
    """One kernel's importance-weighted surrogate gradient.

    With grad = -y k(x, .), the surrogate (grad - guess)/p 1[accepted] + guess
    is gamma guess + delta k(x, .), where gamma = 1 - a/p and delta = -y a/p
    (a = 1 if the coin was accepted, else 0). Returns (gamma, delta);
    ``prob`` is read only when the coin was accepted.
    """
    ratio = 1.0 / prob if accepted else 0.0
    return 1.0 - ratio, -y * ratio


class HingeKernelSelector:
    """Online kernel selection with per-kernel budgets, for the hinge loss.

    Kernel i's buffer is ``buffer_slots[i, :buffer_sizes[i]]``, oldest
    first. A slot whose coefficient was stepped to exactly zero stays in
    it: the budget counts membership, not nonzero-ness.
    """

    def __init__(self, config: HingeSelectorConfig):
        self.config = config
        self.kernels = KernelGrid(config.kernels)
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
        self._gram_records = [()] * k  # each kernel's last removal record, for KernelExpansions.drop
        self.t = 0
        self._last: Prediction | None = None  # its cache: (kernel rows over the store's slots, f_i(x) before the guess, guesses)

    @property
    def buffers(self) -> list[np.ndarray]:
        """Each kernel's buffer as a view of its slots, in insertion order."""
        return [self.buffer_slots[i, :n] for i, n in enumerate(self.buffer_sizes)]

    def predict(self, x) -> Prediction:
        """f_{t,i}(x) = f'_i(x) - lambda_i * guess_i(x); mixture and sign.

        sign(0) is +1. Raises ValueError on a wrong-shaped or non-finite
        ``x``, or one whose k_i(x, x) overflows, before any state changes.
        """
        x, xsq = check_features(x, self.config.dim)
        check_self_values(self.kernels, xsq)
        rows = self.expansions.rows(x, xsq)
        guesses = self.reservoir.optimistic_value_many(rows)
        fx = np.vecdot(self.expansions.coef, rows)
        self._last = pred = mix(x, xsq, fx - self.rate * guesses, self.hedge.distribution(), (rows, fx, guesses))
        return pred

    def update(self, x, y) -> RoundRecord:
        """Consume the round's true label; one call per round, after predict.

        Hedge is charged first, so losses it rejects raise ValueError before
        the round changes anything but ``t``, which counts the round.
        """
        y, pred = pending(self, x, y)
        rows, fx, guesses = pred.cache
        ex, res = self.expansions, self.reservoir
        kxx = self_values(self.kernels, pred.x_sqnorm)
        # Every per-kernel scalar is a Python float from here on; numpy works only over store slots.
        kxx_, guesses_, guess_sq = kxx.tolist(), guesses.tolist(), res.optimistic_sq_norms().tolist()
        sizes = self.buffer_sizes.tolist()
        sums = self.gap_sums.tolist()
        losses, violated, gap_sq, gamma, candidates = [], [], [], [], []
        for i, (f, k_ii, g, g_sq) in enumerate(zip(pred.per_kernel.tolist(), kxx_, guesses_, guess_sq)):
            m = y * f
            v = m < 1.0  # where the margin is violated, grad = -y k(x_t, .)
            d = k_ii + 2.0 * y * g + g_sq
            gap = (0.0 if d <= 0.0 else d) * v  # np.maximum(d, 0.0): NaN stays, -0.0 becomes 0.0
            sums[i] += gap
            losses.append(0.0 if m >= 1.0 else 1.0 - m)  # a NaN margin gives a NaN loss
            violated.append(v)
            gap_sq.append(gap)
            gamma.append(gap / math.sqrt(1.0 + sums[i]))
            if v and sizes[i]:
                candidates.append(i)
        losses = np.array(losses)
        # charged before the round changes any state, so losses it rejects leave the learner as it was
        self.hedge.update(losses)
        # the round's example, holding the round's reference until the end
        slot = ex.add(pred.x, y, pred.x_sqnorm, kxx)
        res.track(slot, guesses)
        self.gap_sums[:] = sums
        proxy = self._proxy_steps(candidates, sizes, rows, kxx, gamma, y) if candidates else ()

        full = self.per_kernel_cap
        sampled, prob, accepted, removed, branch, coin = [], [], [], [], [], []
        for i, (v, gap, g_sq) in enumerate(zip(violated, gap_sq, guess_sq)):
            s = v and i not in proxy
            a = False
            if not s:
                p = math.nan
            elif gap > 0.0:
                p = gap / (gap + g_sq)
                a = self._rngs[i].random() < p
            else:  # a zero gap means grad coincides with the guess: an exact step, no coin
                p = 0.0
            sampled.append(s)
            prob.append(p)
            accepted.append(a)
            removed.append(a and sizes[i] == full)
            branch.append(("sampled" if s else "proxy") if v else "skip")
            coin.append(int(a) if s else -1)
        if any(removed):
            kept = full // 2 if self.config.removal == "half" else 0
            records = self._gram_records
            for i in [i for i, r in enumerate(removed) if r]:
                if not kept:  # a restart also drops the mass on archive anchors
                    ex.coef[i] = 0.0
                records[i] = ex.drop(slice(i, i + 1), self.buffer_slots[i, kept:full], last=records[i])
                sizes[i] = kept
                self.removals[i] += 1
            ex.project(self.radius)
            mask = np.array(removed)
            fx[mask] = np.vecdot(ex.coef[mask], rows[mask])
        if any(sampled):
            self._sampled_steps(sampled, accepted, prob, slot, y, fx.tolist(), kxx_, guesses_, guess_sq)
            joined = [i for i, a in enumerate(accepted) if a]
            if joined:
                self.store.incref(slot, len(joined))
                for i in joined:
                    self.buffer_slots[i, sizes[i]] = slot
                    sizes[i] += 1
        self.buffer_sizes[:] = sizes
        # each kernel's step touched only its own row, so one projection serves all
        ex.project(self.radius)

        accepted_by_reservoir = res.observe(slot)
        self.store.release(slot)  # freed unless a buffer or the reservoir took it

        return RoundRecord.of(
            self.t,
            pred,
            y,
            losses,
            branch=branch,
            prob=np.array(prob),
            coin=np.array(coin),
            gap_sq=np.array(gap_sq),
            removed=np.array(removed),
            reservoir_accepted=accepted_by_reservoir,
        )

    def _proxy_steps(self, candidates, sizes, rows, kxx, gamma, y) -> list[int]:
        """Step each candidate kernel whose nearest buffered example lies within gamma.

        One (K, n) matrix holds the squared feature-space distances from x
        to every buffered example of every kernel, from the round's kernel
        rows and the examples' cached self-similarities, read through the
        buffers' slot arrays; kernel i reads the first ``sizes[i]`` entries
        of its row. Returns the kernels that took the proxy step.
        """
        ex = self.expansions
        slots = self.buffer_slots[:, : max(sizes)]
        at = ex.row_starts + slots  # flat positions in the (K, capacity) arrays
        rad = ex.self_k.take(at) + kxx[:, None] - 2.0 * rows.take(at)
        proxy = []
        for i in candidates:
            r = rad[i, : sizes[i]].min()  # sqrt is monotone, so the nearest is the one of least radicand
            if math.sqrt(0.0 if r <= 0.0 else r) <= gamma[i]:
                proxy.append(i)
        for i in proxy:
            # the argmin runs over the distances themselves, so ties resolve to the earliest insertion
            j = slots[i, np.sqrt(np.maximum(rad[i, : sizes[i]], 0.0)).argmin()]
            c = np.zeros(len(sizes))  # only kernel i steps
            c[i] = self.rate * y
            ex.step(j, c, 2.0 * c * ex.values_at(j) + c * c * ex.self_k[:, j])
        return proxy

    def _sampled_steps(self, sampled, accepted, prob, slot, y, fx, kxx, guess_values, guess_sq):
        """Step every sampled kernel by -rate times its importance-weighted surrogate.

        Kernel i's step is c_i = u_i g + w_i k_i(x, .), with g the guess and
        (u_i, w_i) = -rate (gamma_i, delta_i) from :func:`_surrogate_weights`.
        So ||f_i + c_i||^2 - ||f_i||^2 is
        u_i (2 <f_i, g> + u_i ||g||^2 + 2 w_i g(x)) + w_i (2 f_i(x) + w_i k_i(x, x)),
        where <f_i, g> comes from the reservoir's label sums, f_i(x) and g(x)
        from predict, and ||g||^2 from the reservoir's cache. No kernel is
        evaluated. The other kernels get a step of signed zeros.
        """
        res = self.reservoir
        m = len(res)
        f_dot_g = (-np.vecdot(self.expansions.coef, res.label_sums) / m).tolist() if m else [0.0] * len(sampled)
        neg_rate = -self.rate
        u, w, changes = [], [], []
        for s, a, p, fg, f, k_ii, g, g_sq in zip(sampled, accepted, prob, f_dot_g, fx, kxx, guess_values, guess_sq):
            gamma, delta = _surrogate_weights(y, p, a)
            scale = neg_rate * s
            u_i, w_i = scale * gamma, scale * delta
            u.append(u_i)
            w.append(w_i)
            changes.append(u_i * (2.0 * fg + u_i * g_sq + 2.0 * w_i * g) + w_i * (2.0 * f + w_i * k_ii))
        self.expansions.step(slot, w, changes, res.sample, np.multiply.outer(u, res.guess_coef))

    # -- diagnostics -----------------------------------------------------

    def removal_bounds(self) -> np.ndarray:
        """ceil(4 K A_i / (B k1)) per kernel, with k1 = 1: the expected-removals scale."""
        k = len(self.kernels)
        return np.ceil(4.0 * k * self.gap_sums / self.config.budget)

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

        Between rounds each slot's reference count is its number of archive and
        buffer memberships, so the caps below bound the store by B. Each
        kernel's coefficients are zero outside its buffer and the archive, so
        those memberships alone keep every slot an iterate needs alive. A
        removal keeps at most the archive and half a buffer, so each kernel
        retains one Gram matrix of side at most archive_cap + per_kernel_cap // 2.
        The reservoir's label sums and guess norms are checked too.
        """
        ex, store = self.expansions, self.store
        archive = set(self.reservoir.archive)
        buffers = [buf.tolist() for buf in self.buffers]
        members = np.bincount(self.reservoir.archive + sum(buffers, []), minlength=store.capacity)
        assert np.array_equal(members, store.refs), "reference count differs from archive and buffer memberships"
        for i, buf in enumerate(buffers):
            assert len(buf) <= self.per_kernel_cap, "buffer over budget"
            assert set(np.flatnonzero(ex.coef[i]).tolist()) <= archive.union(buf), "coefficient outside buffer and archive"
        ex.check_invariants(self.radius)
        self.reservoir.check_invariants()
        assert len(self.reservoir.archive) <= self.archive_cap, "archive over cap"
        assert len(self.reservoir) <= self.config.reservoir_size, "reservoir over capacity"
        assert len(self._gram_records) == len(self.kernels), "not one removal record per kernel"
        side = self.archive_cap + self.per_kernel_cap // 2
        for record in self._gram_records:
            assert not record or record[1].shape[0] == 1 and record[1].shape[1] <= side, "retained Gram over its bound"
