"""Uniform reservoir sample of the stream plus its append-only archive.

The reservoir feeds the hinge learner's gradient guess: the guess at a
query x is -(1/|V|) sum_{(x_j, y_j) in V} y_j k(x_j, x). For each kernel i
the reservoir keeps the label sums sum_{j in V} y_j k_i(x_j, x_s) at every
store slot s, a (K, capacity) matrix. With them the learner reads the
inner product of any iterate with the guess, and the guess's squared norm,
without evaluating a kernel. A slot's sums are written when its example is
stored (from the guess values the learner computed at predict), and one
pass over the store against the new sample recomputes every slot's sums
when the sample changes. Sample changes stop when the archive freezes, so
they are rare: about a hundred on a stream of thousands.

The sample and the archive hold store slots. The archive (every example
that ever entered the reservoir) is capped: once ``archive_cap`` examples
have been archived, insertion freezes. This turns the expected-size budget
accounting into a hard memory bound.
"""

from __future__ import annotations

import numpy as np

from .kernels import KernelSpec, kernel_rows, pairwise
from .rkhs import ExampleStore

__all__ = ["Reservoir"]


class Reservoir:
    """Capacity-M uniform sample with archive and optimistic-gradient views.

    ``specs`` are the kernels whose label sums are kept; a kernel is named
    by its position in ``specs``. ``label_sums[i, s]`` is
    sum_{j in V} y_j k_i(x_j, x_s), valid at every live slot that entered
    through :meth:`observe` or was registered with :meth:`track`.
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
        self.sample = np.zeros(0, dtype=np.intp)  # slots of the current uniform sample V
        self.archive: list[int] = []  # slots of every example ever sampled
        self.seen = 0
        self.frozen = False
        self.label_sums = np.zeros((len(self.specs), store.capacity))
        # sum_{j,k in V} y_j y_k k_i(x_j, x_k) for each kernel i, unnormalized
        self._gram_sum = np.zeros(len(self.specs))

    def __len__(self) -> int:
        return len(self.sample)

    # -- stream ingestion ------------------------------------------------

    def observe(self, slot: int) -> bool:
        """Offer the round's example, already stored in ``slot``; returns True if it entered the sample.

        The caller frees the slot if nothing kept it. Insertion happens
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
        if len(self.sample) == self.capacity:
            k = int(self.rng.integers(self.capacity))
            self.store.decref(self.sample[k])  # the evicted example stays in the archive
            self.sample[k] = slot
        else:
            self.sample = np.append(self.sample, slot)
        self.archive.append(slot)
        self.store.incref(slot, 2)  # one reference for the sample, one for the archive
        self._sums_update()
        if len(self.archive) >= self.archive_cap:
            self.frozen = True
        return True

    def track(self, slot: int, guess_values):
        """Write the label sums of an example just stored in ``slot``.

        ``guess_values`` are the guess values at that example, computed
        against the current sample (by :meth:`optimistic_value_many`).
        """
        self.label_sums[:, slot] = -len(self.sample) * np.asarray(guess_values)

    # -- optimistic gradient views ----------------------------------------

    def optimistic_value_many(self, rows) -> np.ndarray:
        """Guess values at a query for each kernel; 0 while the sample is empty.

        ``rows`` is the (K, capacity) matrix of k_i(x_s, x) between every
        store slot s and the query x.
        """
        if not len(self.sample):
            return np.zeros(len(rows))
        return -np.vecdot(rows[:, self.sample], self.store.label[self.sample]) / len(self.sample)

    def optimistic_sq_norms(self) -> np.ndarray:
        """Squared RKHS norm of the guess under each kernel of ``specs``."""
        if not len(self.sample):
            return np.zeros(len(self.specs))
        return np.maximum(self._gram_sum, 0.0) / len(self.sample) ** 2

    # -- label-sum maintenance ---------------------------------------------

    def _sums_update(self):
        # One pass over the store against the new sample, so the sums carry no drift.
        if not self.specs:
            return
        st, v = self.store, self.sample
        rows = kernel_rows(self.specs, *pairwise(st.X, st.sqnorm, st.X[v], st.sqnorm[v]))
        self.label_sums = rows @ st.label[v]
        self._gram_sum = np.vecdot(self.label_sums[:, v], st.label[v])
