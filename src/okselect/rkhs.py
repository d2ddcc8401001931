"""Budgeted representation of RKHS elements.

An :class:`ExampleStore` holds, in preallocated arrays of a fixed number of
slots, the examples that any live structure (a function's buffer, a
coefficient, the reservoir, the archive) still references. The slot is an
example's only handle; reference counting frees a slot as soon as nothing
holds it, so memory is fixed by the capacity, not by the stream length.

A :class:`BudgetedFunction` is a kernel expansion f = sum_j beta_j k(x_j, .)
whose squared RKHS norm is maintained incrementally through the rank-one
identity and recomputed from the Gram matrix whenever half of its buffer is
removed.
"""

from __future__ import annotations

import numpy as np

from .kernels import KernelSpec, kernel_column, kernel_cross, kernel_gram, self_eval

__all__ = ["ExampleStore", "BudgetedFunction"]


class ExampleStore:
    """Fixed-capacity, reference-counted pool of stored examples.

    A stored example is known only by its slot: its row in ``X``,
    ``sqnorm``, ``label`` and ``refs``. ``live`` marks the slots in use,
    including one added this round that nothing references yet. Every
    buffer membership, nonzero coefficient, reservoir entry and archive
    entry owns one reference; a slot whose count drops back to zero is freed
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

    def add(self, x, y) -> int:
        """Store (x, y) with refcount 0 and return its slot."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected a ({self.dim},) vector, got {x.shape}")
        if not self._free:
            raise RuntimeError(f"example store is full: all {self.capacity} slots are live")
        slot = self._free.pop()
        self.X[slot] = x
        self.sqnorm[slot] = float(x @ x)
        self.label[slot] = float(y)
        self.live[slot] = True
        return slot

    def _check_live(self, slot: int):
        if not self.live[slot]:
            raise KeyError(f"slot {slot} holds no example")

    def incref(self, slot: int):
        self._check_live(slot)
        self.refs[slot] += 1

    def decref(self, slot: int):
        self._check_live(slot)
        if self.refs[slot] == 0:
            raise RuntimeError(f"refcount of slot {slot} went negative")
        self.refs[slot] -= 1
        if self.refs[slot] == 0:
            self._free_slot(slot)

    def release_if_unreferenced(self, slot: int):
        """Free a slot that was added this round but never referenced."""
        if self.live[slot] and self.refs[slot] == 0:
            self._free_slot(slot)

    def _free_slot(self, slot: int):
        self.live[slot] = False
        self._free.append(slot)

    def rows(self, slots):
        """(features, row squared norms, labels) for a batch of slots."""
        sl = np.asarray(slots, dtype=np.intp)
        return self.X[sl], self.sqnorm[sl], self.label[sl]


class BudgetedFunction:
    """A kernel expansion under a buffer budget.

    ``coeffs`` maps store slots to nonzero coefficients. ``own_buffer``
    lists, in insertion order, the slots charged against this function's
    budget. Coefficient support may extend beyond it: gradient-guess
    anchors live in the shared archive and are budgeted there. Slots whose
    coefficient was stepped to exactly zero stay in ``own_buffer``
    (budgeting counts buffer membership, not nonzero-ness).

    Single-writer: concurrent updates of one instance are not supported;
    distinct functions over a shared store snapshot may be updated in
    parallel.
    """

    def __init__(self, spec: KernelSpec, store: ExampleStore):
        self.spec = spec
        self.store = store
        self.coeffs: dict[int, float] = {}
        self.own_buffer: list[int] = []
        self._sq_norm = 0.0
        self._anchor_cache = None  # (X rows, sqnorms, coeff array) of the support

    # -- views ---------------------------------------------------------

    def squared_norm(self) -> float:
        return max(self._sq_norm, 0.0)

    def norm(self) -> float:
        return float(np.sqrt(self.squared_norm()))

    def buffer_size(self) -> int:
        return len(self.own_buffer)

    def _anchors(self):
        if self._anchor_cache is None:
            n = len(self.coeffs)
            X, sq, _ = self.store.rows(np.fromiter(self.coeffs, dtype=np.intp, count=n))
            beta = np.fromiter(self.coeffs.values(), dtype=float, count=n)
            self._anchor_cache = (X, sq, beta)
        return self._anchor_cache

    def value(self, x, x_sqnorm: float | None = None) -> float:
        """f(x) = sum_j beta_j k(x_j, x)."""
        if not self.coeffs:
            return 0.0
        X, sq, beta = self._anchors()
        col = kernel_column(self.spec, X, sq, x, x_sqnorm)
        return float(beta @ col)

    def value_at(self, slot: int) -> float:
        return self.value(self.store.X[slot], float(self.store.sqnorm[slot]))

    # -- updates -------------------------------------------------------

    def _set_coeff(self, slot: int, value: float):
        old = self.coeffs.get(slot, 0.0)
        if old == 0.0 and value != 0.0:
            self.store.incref(slot)
            self.coeffs[slot] = value
        elif old != 0.0 and value == 0.0:
            del self.coeffs[slot]
            self.store.decref(slot)
        elif value != 0.0:
            self.coeffs[slot] = value
        self._anchor_cache = None

    def add_scaled(self, c: float, slot: int):
        """f <- f + c * k(x_slot, .), updating the norm cache incrementally.

        ||f + c k(x,.)||^2 = ||f||^2 + 2 c f(x) + c^2 k(x, x), with f(x)
        evaluated before the update.
        """
        if c == 0.0:
            return
        fx = self.value_at(slot)
        kxx = self_eval(self.spec, None, float(self.store.sqnorm[slot]))
        self._sq_norm += 2.0 * c * fx + c * c * kxx
        self._set_coeff(slot, self.coeffs.get(slot, 0.0) + c)

    def add_scaled_many(self, updates: dict[int, float]):
        """f <- f + g with g = sum_j c_j k(x_j, .), one norm update for all.

        ||f + g||^2 = ||f||^2 + 2 <f, g> + ||g||^2 where <f, g> =
        sum_j c_j f(x_j).
        """
        items = [(s, c) for s, c in updates.items() if c != 0.0]
        if not items:
            return
        cs = np.array([c for _, c in items])
        Xg, sqg, _ = self.store.rows([s for s, _ in items])
        inner = 0.0
        if self.coeffs:
            fX, fsq, beta = self._anchors()
            cross = kernel_cross(self.spec, fX, fsq, Xg, sqg)
            inner = float(beta @ cross @ cs)
        gram = kernel_gram(self.spec, Xg, sqg)
        self._sq_norm += 2.0 * inner + float(cs @ gram @ cs)
        for s, c in items:
            self._set_coeff(s, self.coeffs.get(s, 0.0) + c)

    def project_ball(self, radius: float):
        """Project onto {||f|| <= radius}; idempotent, never grows the norm."""
        nsq = self.squared_norm()
        if nsq <= radius * radius:
            return
        scale = radius / np.sqrt(nsq)
        for s in self.coeffs:
            self.coeffs[s] *= scale
        self._sq_norm = radius * radius
        self._anchor_cache = None

    def buffer_append(self, slot: int):
        self.store.incref(slot)
        self.own_buffer.append(slot)

    def split_half(self) -> list[int]:
        """Drop the newer half of ``own_buffer`` and return its slots.

        Coefficients on the dropped slots are deleted; coefficient mass on
        slots outside ``own_buffer`` (archive anchors) stays. The norm
        cache is recomputed from scratch, which also resets accumulated
        drift.
        """
        n = len(self.own_buffer)
        if n < 2 or n % 2 != 0:
            raise ValueError(f"own_buffer size {n} is not an even size >= 2")
        kept, removed = self.own_buffer[: n // 2], self.own_buffer[n // 2 :]
        for slot in removed:
            if slot in self.coeffs:
                del self.coeffs[slot]
                self.store.decref(slot)
            self.store.decref(slot)  # buffer membership
        self.own_buffer = kept
        self._anchor_cache = None
        self.recompute_sq_norm()
        return removed

    def clear(self) -> list[int]:
        """Restart: drop the whole buffer and every coefficient."""
        removed = self.own_buffer
        for slot in removed:
            self.store.decref(slot)
        for slot in self.coeffs:
            self.store.decref(slot)
        self.coeffs = {}
        self.own_buffer = []
        self._sq_norm = 0.0
        self._anchor_cache = None
        return removed

    def recompute_sq_norm(self) -> float:
        """O(B^2) norm from the Gram matrix of the coefficient support."""
        if not self.coeffs:
            self._sq_norm = 0.0
        else:
            X, sq, beta = self._anchors()
            gram = kernel_gram(self.spec, X, sq)
            self._sq_norm = float(beta @ gram @ beta)
        return self.squared_norm()
