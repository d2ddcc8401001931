"""Budgeted representation of RKHS elements.

The store and the expansions serve both learners. An :class:`ExampleStore`
holds, in preallocated arrays of a fixed number of slots, the examples that
a buffer or the reservoir still references. The slot is an example's only
handle, and it is live exactly while something references it: reference
counting frees a slot as soon as nothing holds it, so memory is fixed by
the capacity, not by the stream length. A freed slot is reused before an
untouched one, so the slots ever handed out are a prefix of the store, as
long as its peak occupancy.

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
the learner keeps its buffers itself. A learner that hands back the record
of its previous removal reuses that removal's Gram matrix while the kept
slots hold the same examples, which the store's per-slot fill counts
tell. The kernel rows at a point, which both learners read for values at
a stored example and the hinge learner for its predictions, come from one
pass over that prefix only. The self-similarities k_i(x_s, x_s) that
those changes and both learners' proxy searches need are cached per slot,
written when a learner stores an example through
:meth:`KernelExpansions.add`.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

# kernel_column is bound here only because okbench's tracer test patches this lookup site
from .kernels import KernelGrid, KernelSpec, kernel_column, kernel_rows, pairwise, self_values  # noqa: F401

__all__ = ["ExampleStore", "KernelExpansions"]

# A BLAS matrix-vector product may sum a row's inner product differently
# depending on the row's place in a block of rows (OpenBLAS's dgemv works in
# blocks of four; eight also covers kernels with blocks of eight). Passes over
# a prefix of the store's rows that is a whole number of such blocks give
# every row the bits of a pass over all of them. A whole block also keeps a
# product with a matrix of queries from shrinking to one row, which numpy
# would take as a matrix-vector product, with other bits.
ROW_BLOCK = 8


class ExampleStore:
    """Fixed-capacity, reference-counted pool of stored examples.

    A stored example is known only by its slot: its row in ``X``,
    ``sqnorm``, ``label`` and ``refs``. A slot is live exactly while
    ``refs`` counts a reference to it: :meth:`add` hands the new slot out
    holding one, the caller's, and every further holder (a buffer
    membership, an archive entry) takes one with :meth:`incref`. Every
    holder gives its reference back with :meth:`release` (or, for many
    slots at once, :meth:`release_many`), which frees a slot whose count
    drops to zero for the next ``add``. The arrays are
    allocated once and never grow, so ``add`` on a full store raises.
    ``high_water`` counts the slots ever handed out: ``add`` reuses the last
    freed slot before an untouched one, so it is the peak of ``len(store)``
    and the slots from it on are untouched, with zero rows. ``fills[s]``
    counts the examples slot s has held, so a slot whose count has not
    changed still holds the same example.
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
        self.fills = np.zeros(capacity, dtype=np.int64)
        self.high_water = 0
        self._free: list[int] = []  # freed slots, the last freed handed out first

    def __len__(self) -> int:
        return self.high_water - len(self._free)

    def add(self, x, y, x_sqnorm: float) -> int:
        """Store (x, y) and return its slot, which holds one reference: the caller's.

        ``x_sqnorm`` is x @ x, which every caller has already computed.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected a ({self.dim},) vector, got {x.shape}")
        if self._free:
            slot = self._free.pop()
        elif self.high_water < self.capacity:
            slot = self.high_water
            self.high_water += 1
        else:
            raise RuntimeError(f"example store is full: all {self.capacity} slots are live")
        self.X[slot] = x
        self.sqnorm[slot] = x_sqnorm
        self.label[slot] = float(y)
        self.refs[slot] = 1
        self.fills[slot] += 1
        return slot

    def rows_used(self) -> int:
        """The leading rows that a pass over the slots ever handed out covers: ``high_water``
        rounded up to a whole block of :data:`ROW_BLOCK` rows, and at most the capacity."""
        return min(-(-self.high_water // ROW_BLOCK) * ROW_BLOCK, self.capacity)

    def incref(self, slot: int, n: int = 1):
        """Add ``n`` >= 1 references to a live slot."""
        if n < 1:
            raise ValueError(f"reference count to add must be >= 1, got {n}")
        if not self.refs[slot]:
            raise KeyError(f"slot {slot} holds no example")
        self.refs[slot] += n

    def release(self, slot: int):
        """Drop one reference from a live slot; a slot left unreferenced is freed, to be handed out next."""
        refs = self.refs[slot]
        if not refs:
            raise KeyError(f"slot {slot} holds no example")
        self.refs[slot] = refs - 1
        if refs == 1:
            self._free.append(slot)

    def release_many(self, slots):
        """:meth:`release` each slot of ``slots`` in order; KeyError, with
        nothing changed, when a slot is listed more often than it holds references."""
        slots = np.asarray(slots, dtype=np.intp)
        held = self.refs.take(slots)  # IndexError past the store
        listed, counts = slots.tolist(), held.tolist()
        if len(set(listed)) == len(listed) and 0 not in counts:  # distinct live slots: all at once
            self.refs[slots] = held - 1
            self._free += [slot for slot, n in zip(listed, counts) if n == 1]
            return
        short = [slot for slot, n in Counter(listed).items() if n > self.refs[slot]]
        if short:
            raise KeyError(f"slot {short[0]} is listed more often than it holds references")
        for slot in listed:
            self.release(slot)


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
    ``specs`` is kept as a :class:`~okselect.kernels.KernelGrid` of its own.
    """

    def __init__(self, specs: tuple[KernelSpec, ...], store: ExampleStore):
        self.specs = KernelGrid(specs)
        self.store = store
        self.coef = np.zeros((len(self.specs), store.capacity))
        self.sq_norms = np.zeros(len(self.specs))
        self.self_k = np.zeros((len(self.specs), store.capacity))
        self.row_starts = np.arange(len(self.specs))[:, None] * store.capacity  # flat offset of each row

    def add(self, x, y, x_sqnorm: float, kxx) -> int:
        """Store (x, y) holding the caller's reference, cache its (K,) self-similarities
        ``kxx`` (``self_values(specs, x_sqnorm)``) and return its slot."""
        slot = self.store.add(x, y, x_sqnorm)
        self.self_k[:, slot] = kxx
        return slot

    def check_invariants(self, radius: float):
        """Assert that every iterate lies in the ball of ``radius`` (up to 1e-8),
        that the self-similarity cache is exact at every live slot (rel 1e-12),
        and that no slot at or above the store's high-water mark is referenced
        or carries a coefficient or a cached self-similarity."""
        assert np.all(np.sqrt(np.maximum(self.sq_norms, 0.0)) <= radius + 1e-8), "iterate escaped the ball"
        untouched = slice(self.store.high_water, None)
        assert not self.store.refs[untouched].any(), "slot above the high-water mark is referenced"
        assert not self.coef[:, untouched].any(), "coefficient above the high-water mark"
        assert not self.self_k[:, untouched].any(), "self-similarity cached above the high-water mark"
        live = self.store.refs > 0
        want = self_values(self.specs, self.store.sqnorm[live])
        assert np.all(np.abs(self.self_k[:, live] - want) <= 1e-12 * np.abs(want)), "stale self-similarity cache"

    def rows(self, x, x_sqnorm: float) -> np.ndarray:
        """(K, capacity) matrix of k_i(x_s, x), from one pass over the slots the store has handed out.

        The pass covers the slots below the store's high-water mark, rounded
        up to a whole block of :data:`ROW_BLOCK` rows; the columns after it
        are zero, as every coefficient there is. Free slots below the mark
        hold stale rows; their coefficients are zero too.
        """
        st, grid = self.store, self.specs
        n = st.rows_used()
        if n == st.capacity:
            return kernel_rows(grid, *pairwise(st.X, st.sqnorm, x, x_sqnorm, grid.gaussian))
        out = np.zeros((len(grid), st.capacity))
        out[:, :n] = kernel_rows(grid, *pairwise(st.X[:n], st.sqnorm[:n], x, x_sqnorm, grid.gaussian))
        return out

    def values_at(self, slot: int) -> np.ndarray:
        """(K,) values f_i(x_slot) of every expansion at a stored example."""
        return np.vecdot(self.coef, self.rows(self.store.X[slot], self.store.sqnorm[slot]))

    def step(self, slot, c, sq_norm_changes, slots=None, C=None):
        """f_i <- f_i + c_i k_i(x_slot, .) + sum_j C[i, j] k_i(x_{slots[j]}, .) for every kernel i.

        ``c`` holds each kernel's coefficient on ``slot``, or one for every
        kernel. ``slots``, when given, is an array of distinct slots other
        than ``slot``, with ``C`` their (K, n) coefficients. The caller
        supplies the (K,) changes of ||f_i||^2, which it knows in closed
        form, so no kernel is evaluated.
        """
        if slots is not None:
            # coef is C-contiguous, so reshape gives a view and the flat positions address it
            self.coef.reshape(-1)[self.row_starts + slots] += C
        self.coef[:, slot] += c
        self.sq_norms += sq_norm_changes

    def project(self, radius: float):
        """Project each f_i onto {||f|| <= radius}; idempotent, never grows a norm."""
        r2 = radius * radius
        norms = self.sq_norms.tolist()
        if max(norms) <= r2:
            return
        for i, n in enumerate(norms):
            if n > r2:  # sqrt and division round correctly in Python as in numpy: the same bits
                self.coef[i] *= radius / math.sqrt(n)
                self.sq_norms[i] = r2

    def drop(self, kernels: slice, slots, keep=None, last=None):
        """Remove ``slots`` from the expansions of the kernels in a slice.

        Each slot is given one reference back through
        :meth:`ExampleStore.release_many`, in the order given, so the slots
        left unreferenced are freed in that order; a slot listed more often
        than it holds references raises KeyError before anything changes.
        Their coefficients on ``slots`` are then zeroed; coefficient mass on
        other slots (the hinge learner's archive anchors) stays. The norms
        are recomputed over ``keep``, which must cover what is left of the
        kernels' support and is by default their joint support; the
        recomputation also resets accumulated drift. ``last`` and the return
        value are those of :meth:`recompute_sq_norms`.
        """
        self.store.release_many(slots)
        self.coef[kernels, slots] = 0.0
        return self.recompute_sq_norms(kernels, keep, last)

    def recompute_sq_norms(self, kernels: slice = slice(None), slots=None, last=None):
        """O(n^2) ||f_i||^2 for the kernels in a slice, from one pairwise pass over ``slots``.

        ``slots`` must cover the coefficient support of every kernel in the
        slice; by default it is their joint support. With ``last`` None,
        nothing outlives the call and it returns None. Otherwise it returns
        its record, the pair (key, the (k, n, n) Gram matrices), where the
        key holds the slice, the slots and their fill counts, and ``last``
        is the record of an earlier call, or ``()`` before the first. When
        that record's key is this call's, its Gram matrices are reused and
        ``last`` is returned: no kernel is evaluated, and the norms are the
        bits a fresh pass would give.
        """
        coef, norms = self.coef[kernels], self.sq_norms[kernels]
        if slots is None:
            slots = np.flatnonzero(coef.any(axis=0))
        if last is not None:
            # bytes, so a caller that overwrites its slot array afterwards cannot fake a match
            slots = np.asarray(slots, dtype=np.intp)
            key = (kernels.indices(len(self.specs)), slots.tobytes(), self.store.fills.take(slots).tobytes())
        if last and last[0] == key:
            grams = last[1]
        else:
            grid = self.specs.part(kernels)
            X = self.store.X.take(slots, axis=0)
            sq = self.store.sqnorm.take(slots) if grid.gaussian else None
            grams = kernel_rows(grid, *pairwise(X, sq, X, sq, grid.gaussian))
            last = None if last is None else (key, grams)
        for j, gram in enumerate(grams):
            beta = coef[j].take(slots)
            norms[j] = float(beta.dot(gram).dot(beta))
        return last
