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
caller, in closed form, and evaluates no kernel; the cache is recomputed
from the Gram matrix of the support after every removal. The
self-similarities k_i(x_s, x_s) that those changes and both learners'
proxy searches need are cached per slot, written when a learner stores an
example through :meth:`KernelExpansions.add`. The hinge learner keeps one
buffer per kernel in it; the smooth learner keeps one buffer for all K
kernels itself.
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
    changes it is given, :meth:`project` scales it, and a removal
    recomputes it from the Gram matrix. Coefficients hold no store
    references; whoever steps on a slot keeps it alive. When each kernel
    has a buffer of its own (the hinge learner), kernel i's buffer is
    ``buffer_slots[i, :buffer_sizes[i]]``: the slots charged against its
    budget, in insertion order, each membership holding a store reference.
    A coefficient may sit on a slot outside the buffer (a gradient-guess
    anchor in the archive). Slots whose coefficient was stepped to exactly
    zero stay in the buffer (budgeting counts membership, not
    nonzero-ness). A learner whose kernels share one buffer (the smooth
    learner) keeps that buffer itself and leaves these empty.

    ``self_k[i, s]`` caches k_i(x_s, x_s) for every live slot s; it is
    written by :meth:`add`, so a learner stores examples through it.
    """

    def __init__(self, specs: tuple[KernelSpec, ...], store: ExampleStore):
        self.specs = tuple(specs)
        self.store = store
        self.coef = np.zeros((len(self.specs), store.capacity))
        self.sq_norms = np.zeros(len(self.specs))
        self.self_k = np.zeros((len(self.specs), store.capacity))
        self.buffer_slots = np.zeros((len(self.specs), store.capacity), dtype=np.intp)
        self.buffer_sizes = np.zeros(len(self.specs), dtype=np.intp)
        self._row_starts = np.arange(len(self.specs))[:, None] * store.capacity
        self._distances = any(spec.kind == "gaussian" for spec in self.specs)

    @property
    def buffers(self) -> list[np.ndarray]:
        """Each kernel's buffer as a view of its slots, in insertion order."""
        return [self.buffer_slots[i, :n] for i, n in enumerate(self.buffer_sizes)]

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
        return kernel_rows(self.specs, *pairwise(self.store.X, self.store.sqnorm, x, x_sqnorm, self._distances))

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
            self.coef.reshape(-1)[self._row_starts + slots] += C
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

    def buffer_append(self, kernels, slot: int):
        """Append ``slot`` to the buffer of each kernel in ``kernels`` (an index or an array of distinct indices)."""
        kernels = np.atleast_1d(kernels)
        self.store.incref(slot, len(kernels))
        self.buffer_slots[kernels, self.buffer_sizes[kernels]] = slot
        self.buffer_sizes[kernels] += 1

    def split_half(self, i: int) -> np.ndarray:
        """Drop the newer half of kernel i's buffer and return its slots.

        Coefficients on the dropped slots are zeroed; coefficient mass on
        slots outside the buffer (archive anchors) stays. The norm cache is
        recomputed from scratch, which also resets accumulated drift.
        """
        n = int(self.buffer_sizes[i])
        if n < 2 or n % 2 != 0:
            raise ValueError(f"buffer size {n} is not an even size >= 2")
        removed = self.buffer_slots[i, n // 2 : n].copy()
        self.coef[i, removed] = 0.0
        self.store.decref(removed)
        self.buffer_sizes[i] = n // 2
        self.recompute_sq_norms(slice(i, i + 1))
        return removed

    def clear(self, i: int) -> np.ndarray:
        """Restart kernel i: drop its whole buffer and every coefficient."""
        removed = self.buffer_slots[i, : self.buffer_sizes[i]].copy()
        self.store.decref(removed)
        self.coef[i] = 0.0
        self.sq_norms[i] = 0.0
        self.buffer_sizes[i] = 0
        return removed

    def recompute_sq_norms(self, kernels: slice = slice(None), slots=None):
        """O(n^2) ||f_i||^2 for the kernels in a slice, from one pairwise pass over ``slots``.

        ``slots`` must cover the coefficient support of every kernel in the
        slice; by default it is their joint support.
        """
        coef, norms = self.coef[kernels], self.sq_norms[kernels]
        if slots is None:
            slots = np.flatnonzero(coef.any(axis=0))
        X = self.store.X.take(slots, axis=0)
        sq = self.store.sqnorm.take(slots) if self._distances else None
        grams = kernel_rows(self.specs[kernels], *pairwise(X, sq, X, sq, self._distances))
        for j, gram in enumerate(grams):
            beta = coef[j].take(slots)
            norms[j] = float(beta @ gram @ beta)
