"""Uniform reservoir sample of the stream plus its append-only archive.

The reservoir feeds the hinge learner's gradient guess: the guess at a
query x is -(1/|V|) sum_{(x_j, y_j) in V} y_j k(x_j, x). For each kernel i
the reservoir keeps the label sums sum_{j in V} y_j k_i(x_j, x_s) at every
store slot s, a (K, capacity) matrix. With them the learner reads the
inner product of any iterate with the guess, and the guess's squared norm,
without evaluating a kernel. A slot's sums are written when its example is
stored (from the guess values the learner computed at predict), and one
pass against the new sample recomputes the sums when the sample changes.
That pass covers only the slots the store has ever handed out, rounded up
to whole blocks of rows (:meth:`~okselect.rkhs.ExampleStore.rows_used`),
so every row gets the bits of a pass over the whole store; the sums past
it are zero, where every coefficient is zero too, and a slot handed out
later gets its sums from ``track``. The same pass caches the guess's
squared norms. Sample changes stop when the archive freezes, so they are
rare: about a hundred on a stream of thousands.

The sample and the archive hold store slots. The archive (every example
that ever entered the reservoir) is capped: insertion freezes once it
holds ``archive_cap`` examples. This turns the expected-size budget
accounting into a hard memory bound. Each archived slot holds one store
reference; the sample, always a subset of the archive, holds none.
"""

from __future__ import annotations

import numpy as np

from .kernels import KernelGrid, KernelSpec, kernel_rows, pairwise
from .rkhs import ExampleStore

__all__ = ["Reservoir"]


class Reservoir:
    """Capacity-M uniform sample with archive and optimistic-gradient views.

    ``specs`` are the kernels whose label sums are kept, as a
    :class:`~okselect.kernels.KernelGrid` of its own; a kernel is named by
    its position in ``specs``. ``label_sums[i, s]`` is
    sum_{j in V} y_j k_i(x_j, x_s), valid at every live slot that entered
    through :meth:`observe` or was registered with :meth:`track`.
    Each sample change also caches the sample's labels, ``labels``, the
    guess's coefficients on the sample, ``guess_coef`` = -labels / |V|, and
    its squared norm under each kernel, ``guess_sq_norms``.
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
        self.specs = KernelGrid(specs)
        self.sample = np.zeros(0, dtype=np.intp)  # slots of the current uniform sample V
        self.labels = np.zeros(0)  # the sample's labels y_j
        self.guess_coef = np.zeros(0)  # the guess's coefficients -y_j / |V| on the sample
        self.archive: list[int] = []  # slots of every example ever sampled
        self.seen = 0
        self.label_sums = np.zeros((len(self.specs), store.capacity))
        self.guess_sq_norms = np.zeros(len(self.specs))  # ||guess||^2 under each kernel

    def __len__(self) -> int:
        return len(self.sample)

    # -- stream ingestion ------------------------------------------------

    def observe(self, slot: int) -> bool:
        """Offer the round's example, already stored in ``slot``; returns True if it entered the sample.

        The caller then releases its reference, freeing the slot unless the
        reservoir kept it. Insertion happens with probability min(1, M/t) where
        t counts observe calls; on insertion into a full sample a uniformly
        chosen element is evicted (it stays in the archive, so its slot stays
        live). An inserted example takes one store reference, the archive's.
        No-op once the archive is full, though ``seen`` keeps counting.
        """
        self.seen += 1
        if len(self.archive) >= self.archive_cap:
            return False
        p = min(1.0, self.capacity / self.seen)
        if self.rng.random() >= p:
            return False
        if len(self.sample) == self.capacity:
            k = int(self.rng.integers(self.capacity))
            self.sample[k] = slot
        else:
            self.sample = np.append(self.sample, slot)
        self.archive.append(slot)
        self.store.incref(slot)
        self._sums_update()
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
        return -np.vecdot(rows[:, self.sample], self.labels) / len(self.sample)

    def optimistic_sq_norms(self) -> np.ndarray:
        """Squared RKHS norm of the guess under each kernel of ``specs``, as the last sample change cached it."""
        return self.guess_sq_norms

    # -- label-sum maintenance ---------------------------------------------

    def _sums_update(self):
        # One pass over the used slots against the new sample, so the sums carry no drift.
        st, v = self.store, self.sample
        self.labels = st.label[v]
        self.guess_coef = -self.labels / len(v)
        n = st.rows_used()
        rows = kernel_rows(self.specs, *pairwise(st.X[:n], st.sqnorm[:n], st.X[v], st.sqnorm[v], self.specs.gaussian))
        # matmul runs one gemv per kernel over the (K, n, m) stack; ndarray.dot would sum
        # each row with its own ddot, which rounds differently
        self.label_sums[:, :n] = np.matmul(rows, self.labels)
        self.label_sums[:, n:] = 0.0
        gram_sum = np.vecdot(self.label_sums[:, v], self.labels)  # sum_{j,k in V} y_j y_k k_i(x_j, x_k)
        self.guess_sq_norms = np.maximum(gram_sum, 0.0) / len(v) ** 2

    def check_invariants(self):
        """Assert that the label sums at every live slot match a fresh pass against the
        sample (rel 1e-12 of the sum of the terms' magnitudes), and that the cached
        squared norms of the guess are those the sums give."""
        st, v = self.store, self.sample
        live = np.flatnonzero(st.refs)
        terms = kernel_rows(self.specs, *pairwise(st.X[live], st.sqnorm[live], st.X[v], st.sqnorm[v], self.specs.gaussian))
        want, scale = np.matmul(terms, self.labels), np.abs(terms).sum(axis=-1)
        assert np.all(np.abs(self.label_sums[:, live] - want) <= 1e-12 * scale), "stale label sums"
        norms = np.maximum(np.vecdot(self.label_sums[:, v], self.labels), 0.0) / max(len(v), 1) ** 2
        assert np.array_equal(self.guess_sq_norms, norms), "stale guess norms"
