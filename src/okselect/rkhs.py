"""Budgeted representation of RKHS elements.

The store and the expansions serve both learners. An :class:`ExampleStore`
holds, in preallocated arrays of a fixed number of slots, the examples that
a buffer or the reservoir still references. The slot is an example's only
handle; reference counting frees a slot as soon as nothing holds it, so
memory is fixed by the capacity, not by the stream length.

:class:`KernelExpansions` keeps K kernel expansions
f_i = sum_s coef[i, s] k_i(x_s, .) over the slots of one store as a
(K, capacity) coefficient matrix, with a cache of each squared RKHS norm.
A learner changes an iterate only by adding terms whose effect on the norm
it already knows: c k_i(x_j, .) changes ||f_i||^2 by
2 c f_i(x_j) + c^2 k_i(x_j, x_j), and the hinge learner's gradient guess
by terms its reservoir keeps. So a step takes its norm changes from the
caller, in closed form, and evaluates no kernel. The one removal,
:meth:`KernelExpansions.drop`, recomputes the cache from the Gram matrix
of what is kept; which slots to drop is the learner's buffer policy, and
the learner keeps its buffers itself. The
self-similarities k_i(x_s, x_s) that those changes and both learners'
proxy searches need are cached per slot, written when a learner stores an
example through :meth:`KernelExpansions.add`.
"""

from __future__ import annotations

import numpy as np

# kernel_column is bound here only because okbench's tracer test patches this lookup site
from .kernels import KernelSpec, kernel_column, kernel_rows, pairwise, self_values  # noqa: F401

__all__ = ["ExampleStore", "KernelExpansions"]


class ExampleStore:
    """Fixed-capacity, reference-counted pool of stored examples.

    A stored example is known only by its slot: its row in ``X``,
    ``sqnorm``, ``label`` and ``refs``. ``live`` marks the slots in use,
    including one added this round that nothing references yet. Every
    buffer membership, reservoir entry and archive entry owns one
    reference; a slot whose count drops back to zero is freed
    for the next ``add``. The arrays are allocated once and never grow, so
    ``add`` on a full store raises.
    """

    def __init__(self, dim: int, capacity: int = 64):
        if dim < 1:
            raise ValueError("feature dimension must be >= 1")
        if capacity < 1:
            raise ValueError("store capacity must be >= 1")
        self.dim = dim
        self.capacity = capacity
        self.X = np.zeros((capacity, dim))
        self.sqnorm = np.zeros(capacity)
        self.label = np.zeros(capacity)
        self.refs = np.zeros(capacity, dtype=np.int64)
        self.live = np.zeros(capacity, dtype=bool)
        self._free = list(range(capacity - 1, -1, -1))

    def __len__(self) -> int:
        return self.capacity - len(self._free)

    def add(self, x, y, x_sqnorm: float) -> int:
        """Store (x, y) with refcount 0 and return its slot.

        ``x_sqnorm`` is x @ x, which every caller has already computed.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected a ({self.dim},) vector, got {x.shape}")
        if not self._free:
            raise RuntimeError(f"example store is full: all {self.capacity} slots are live")
        slot = self._free.pop()
        self.X[slot] = x
        self.sqnorm[slot] = x_sqnorm
        self.label[slot] = float(y)
        self.live[slot] = True
        return slot

    def incref(self, slot: int, n: int = 1):
        """Add ``n`` references to a live slot."""
        if not self.live[slot]:
            raise KeyError(f"slot {slot} holds no example")
        self.refs[slot] += n

    def decref(self, slots):
        """Drop one reference from a slot, or from each of an array of distinct slots.

        Slots left unreferenced are freed in the order given.
        """
        slots = np.asarray(slots, dtype=np.intp).ravel()
        refs = self.refs[slots]
        if np.count_nonzero(refs) < refs.size:  # only live slots hold references
            slot = slots[refs == 0][0]
            if not self.live[slot]:
                raise KeyError(f"slot {slot} holds no example")
            raise RuntimeError(f"refcount of slot {slot} went negative")
        refs -= 1
        self.refs[slots] = refs
        freed = slots[refs == 0] if np.count_nonzero(refs) else slots  # often all of them
        self.live[freed] = False
        self._free.extend(freed.tolist())

    def release_if_unreferenced(self, slot: int):
        """Free a slot that was added this round but never referenced."""
        if self.live[slot] and self.refs[slot] == 0:
            self.live[slot] = False
            self._free.append(slot)


class KernelExpansions:
    """K kernel expansions over the slots of one store, one per kernel.

    Kernel i's function is f_i = sum_s coef[i, s] k_i(x_s, .) and
    ``sq_norms[i]`` caches ||f_i||^2: :meth:`step` adds the closed-form
    changes it is given, :meth:`project` scales it, and :meth:`drop`
    recomputes it from the Gram matrix. Coefficients hold no store
    references: a learner keeps every slot it steps on alive through a
    buffer or archive membership, which owns one reference. :meth:`drop`
    is the one removal; it releases one reference per dropped slot, so the
    expansions need not know how the learner buffers its examples.

    ``self_k[i, s]`` caches k_i(x_s, x_s) for every live slot s; it is
    written by :meth:`add`, so a learner stores examples through it.
    """

    def __init__(self, specs: tuple[KernelSpec, ...], store: ExampleStore):
        self.specs = tuple(specs)
        self.store = store
        self.coef = np.zeros((len(self.specs), store.capacity))
        self.sq_norms = np.zeros(len(self.specs))
        self.self_k = np.zeros((len(self.specs), store.capacity))
        self.row_starts = np.arange(len(self.specs))[:, None] * store.capacity  # flat offset of each row
        self.distances = any(spec.kind == "gaussian" for spec in self.specs)  # only Gaussian kernels read distances

    def add(self, x, y, x_sqnorm: float, kxx) -> int:
        """Store (x, y) with refcount 0, cache its (K,) self-similarities ``kxx``
        (``self_values(specs, x_sqnorm)``) and return its slot."""
        slot = self.store.add(x, y, x_sqnorm)
        self.self_k[:, slot] = kxx
        return slot

    def check_self_k(self):
        """Assert that the self-similarity cache is exact at every live slot (rel 1e-12)."""
        live = self.store.live
        want = self_values(self.specs, self.store.sqnorm[live])
        assert np.all(np.abs(self.self_k[:, live] - want) <= 1e-12 * np.abs(want)), "stale self-similarity cache"

    def rows(self, x, x_sqnorm: float) -> np.ndarray:
        """(K, capacity) matrix of k_i(x_s, x), from one pass over the store.

        Free slots hold stale rows; their coefficients are zero.
        """
        return kernel_rows(self.specs, *pairwise(self.store.X, self.store.sqnorm, x, x_sqnorm, self.distances))

    def values_at(self, slot: int) -> np.ndarray:
        """(K,) values f_i(x_slot) of every expansion at a stored example."""
        return np.vecdot(self.coef, self.rows(self.store.X[slot], self.store.sqnorm[slot]))

    def step(self, slots, C, sq_norm_changes):
        """f_i <- f_i + sum_j C[i, j] k_i(x_{slots[j]}, .) for every kernel i.

        ``slots`` is one slot, with ``C`` its (K,) coefficients or one for
        every kernel, or an array of distinct slots with a (K, n) ``C``.
        The caller supplies the (K,) changes of ||f_i||^2, which it knows
        in closed form, so no kernel is evaluated.
        """
        if isinstance(slots, np.ndarray):
            # coef is C-contiguous, so reshape gives a view and the flat positions address it
            self.coef.reshape(-1)[self.row_starts + slots] += C
        else:
            self.coef[:, slots] += C
        self.sq_norms += sq_norm_changes

    def project(self, radius: float):
        """Project each f_i onto {||f|| <= radius}; idempotent, never grows a norm."""
        r2 = radius * radius
        if self.sq_norms.max() <= r2:
            return
        for i in np.flatnonzero(self.sq_norms > r2):
            self.coef[i] *= radius / np.sqrt(self.sq_norms[i])
            self.sq_norms[i] = r2

    def drop(self, kernels: slice, slots, keep=None):
        """Remove ``slots`` from the expansions of the kernels in a slice.

        Their coefficients on ``slots`` are zeroed and one store reference
        is released from each slot, in the order given, so the slots left
        unreferenced are freed in that order. Coefficient mass on other
        slots (the hinge learner's archive anchors) stays. The norms are
        then recomputed over ``keep``, which must cover what is left of
        the kernels' support and is by default their joint support; the
        recomputation also resets accumulated drift.
        """
        self.coef[kernels, slots] = 0.0
        self.store.decref(slots)
        self.recompute_sq_norms(kernels, keep)

    def recompute_sq_norms(self, kernels: slice = slice(None), slots=None):
        """O(n^2) ||f_i||^2 for the kernels in a slice, from one pairwise pass over ``slots``.

        ``slots`` must cover the coefficient support of every kernel in the
        slice; by default it is their joint support.
        """
        coef, norms = self.coef[kernels], self.sq_norms[kernels]
        if slots is None:
            slots = np.flatnonzero(coef.any(axis=0))
        X = self.store.X.take(slots, axis=0)
        sq = self.store.sqnorm.take(slots) if self.distances else None
        grams = kernel_rows(self.specs[kernels], *pairwise(X, sq, X, sq, self.distances))
        for j, gram in enumerate(grams):
            beta = coef[j].take(slots)
            norms[j] = float(beta @ gram @ beta)
