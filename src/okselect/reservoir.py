"""Uniform reservoir sample of the stream plus its append-only archive.

The reservoir feeds the hinge learner's gradient guess: the guess at a
query x is -(1/|V|) sum_{(x_j, y_j) in V} y_j k(x_j, x). Per-kernel caches
of the guess's squared norm are maintained under insert/evict swaps, so an
accepted round costs O(M * K) kernel evaluations.

The sample and the archive hold store slots. The archive (every example
that ever entered the reservoir) is capped: once ``archive_cap`` examples
have been archived, insertion freezes. This turns the expected-size budget
accounting into a hard memory bound.
"""

from __future__ import annotations

import numpy as np

from .kernels import KernelSpec, kernel_column, self_eval
from .rkhs import ExampleStore

__all__ = ["Reservoir"]


class Reservoir:
    """Capacity-M uniform sample with archive and optimistic-gradient views.

    Single-writer; reads for distinct kernels may run in parallel against a
    per-round snapshot.
    """

    def __init__(
        self,
        store: ExampleStore,
        capacity: int,
        archive_cap: int,
        rng: np.random.Generator,
        specs: tuple[KernelSpec, ...] = (),
    ):
        if capacity < 1:
            raise ValueError("reservoir capacity must be >= 1")
        if archive_cap < 1:
            raise ValueError("archive cap must be >= 1")
        self.store = store
        self.capacity = capacity
        self.archive_cap = archive_cap
        self.rng = rng
        self.specs = tuple(specs)
        self.sample: list[int] = []  # slots of the current uniform sample V
        self.archive: list[int] = []  # slots of every example ever sampled
        self.seen = 0
        self.frozen = False
        # per-kernel sum_{j,k in V} y_j y_k k(x_j, x_k), unnormalized
        self._gram_sum = {spec.index: 0.0 for spec in self.specs}

    def __len__(self) -> int:
        return len(self.sample)

    # -- stream ingestion ------------------------------------------------

    def observe(self, x, y, slot: int | None = None) -> bool:
        """Offer the round's example; returns True if it entered the sample.

        ``slot`` names the example when the caller has already stored it;
        otherwise (x, y) is stored only if it is inserted. Insertion happens
        with probability min(1, M/t) where t counts observe calls; on
        insertion into a full sample a uniformly chosen element is evicted
        (it stays in the archive). No-op once frozen, though ``seen`` keeps
        counting.
        """
        self.seen += 1
        if self.frozen:
            return False
        p = min(1.0, self.capacity / self.seen)
        if self.rng.random() >= p:
            return False
        if slot is None:
            slot = self.store.add(x, y)
        if len(self.sample) == self.capacity:
            k = int(self.rng.integers(self.capacity))
            self._cache_update(self.sample[k], -1.0)
            self.store.decref(self.sample[k])
            self.sample[k] = slot
        else:
            self.sample.append(slot)
        self.store.incref(slot)
        self._cache_update(slot, 1.0)
        self.archive.append(slot)
        self.store.incref(slot)
        if len(self.archive) >= self.archive_cap:
            self.frozen = True
        return True

    # -- optimistic gradient views ----------------------------------------

    def optimistic_value_many(self, specs, x, x_sqnorm=None) -> np.ndarray:
        """Guess values at x for each kernel; 0 while the sample is empty."""
        out = np.zeros(len(specs))
        if not self.sample:
            return out
        X, sq, labels = self.store.rows(self.sample)
        for i, spec in enumerate(specs):
            col = kernel_column(spec, X, sq, x, x_sqnorm)
            out[i] = -float(labels @ col) / len(self.sample)
        return out

    def optimistic_sq_norm(self, spec: KernelSpec) -> float:
        """Squared RKHS norm of the guess, from the maintained cache."""
        if not self.sample:
            return 0.0
        if spec.index not in self._gram_sum:
            raise KeyError(f"no cache for kernel index {spec.index}")
        return max(self._gram_sum[spec.index], 0.0) / len(self.sample) ** 2

    def optimistic_coeffs(self) -> dict[int, float]:
        """The guess as a slot -> coefficient map: {slot_j: -y_j / |V|}."""
        m = len(self.sample)
        labels = self.store.label
        return {s: -float(labels[s]) / m for s in self.sample}

    # -- cache maintenance -------------------------------------------------

    def _cache_update(self, slot: int, sign: float):
        # remove (sign -1): G' = G - 2 y_v (sum_{j in V} y_j k_jv) + k_vv, V including v
        # insert (sign +1): G' = G + 2 y_e (sum_{j in V'} y_j k_je) - k_ee, V' including e
        if not self.specs:
            return
        x, xsq, y = self.store.X[slot], float(self.store.sqnorm[slot]), float(self.store.label[slot])
        X, sq, labels = self.store.rows(self.sample)
        for spec in self.specs:
            col = kernel_column(spec, X, sq, x, xsq)
            kxx = self_eval(spec, x, xsq)
            self._gram_sum[spec.index] += sign * (2.0 * y * float(labels @ col) - kxx)

    def recompute_sq_norm(self, spec: KernelSpec) -> float:
        """Brute-force O(M^2) recomputation (used by tests as the oracle)."""
        if not self.sample:
            return 0.0
        X, sq, labels = self.store.rows(self.sample)
        from .kernels import kernel_gram

        gram = kernel_gram(spec, X, sq)
        return float(labels @ gram @ labels) / len(self.sample) ** 2
