"""Uniform reservoir sample of the stream plus its append-only archive.

The reservoir feeds the hinge learner's gradient guess: the guess at a
query x is -(1/|V|) sum_{(x_j, y_j) in V} y_j k(x_j, x). The caches of the
guess's squared norm, one per kernel, are maintained under insert/evict
swaps, so an accepted round costs one pass over the sample for all K
kernels.

The sample and the archive hold store slots. The archive (every example
that ever entered the reservoir) is capped: once ``archive_cap`` examples
have been archived, insertion freezes. This turns the expected-size budget
accounting into a hard memory bound.
"""

from __future__ import annotations

import numpy as np

from .kernels import KernelSpec, kernel_rows, pairwise, self_values
from .rkhs import ExampleStore

__all__ = ["Reservoir"]


class Reservoir:
    """Capacity-M uniform sample with archive and optimistic-gradient views.

    ``specs`` are the kernels whose guess norms are cached; a kernel is
    named by its position in ``specs``.
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
        # sum_{j,k in V} y_j y_k k_i(x_j, x_k) for each kernel i, unnormalized
        self._gram_sum = np.zeros(len(self.specs))

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

    def optimistic_value_many(self, rows) -> np.ndarray:
        """Guess values at a query for each kernel; 0 while the sample is empty.

        ``rows`` is the (K, capacity) matrix of k_i(x_s, x) between every
        store slot s and the query x.
        """
        if not self.sample:
            return np.zeros(len(rows))
        return -np.vecdot(rows[:, self.sample], self.store.label[self.sample]) / len(self.sample)

    def optimistic_sq_norm(self, i: int) -> float:
        """Squared RKHS norm of the guess under kernel ``specs[i]``, from the cache."""
        if not self.sample:
            return 0.0
        return max(self._gram_sum[i], 0.0) / len(self.sample) ** 2

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
        st, v = self.store, self.sample
        x, xsq, y = st.X[slot], float(st.sqnorm[slot]), float(st.label[slot])
        rows = kernel_rows(self.specs, *pairwise(st.X[v], st.sqnorm[v], x, xsq))
        self._gram_sum += sign * (2.0 * y * np.vecdot(rows, st.label[v]) - self_values(self.specs, xsq))
