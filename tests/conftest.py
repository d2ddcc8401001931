import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from okselect import ExampleStore, KernelExpansions
from okselect.kernels import kernel_eval


# A failing property test prints its @reproduce_failure line, so a CI log alone replays it.
settings.register_profile("okselect", print_blob=True)
settings.load_profile("okselect")


def data_dir() -> Path:
    env = os.environ.get("OKSELECT_DATA")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[1] / "data"


def dataset_path(name: str):
    """Path to a benchmark dataset file, or a skip if it is not present."""
    p = data_dir() / name
    if not p.exists():
        pytest.skip(
            f"benchmark dataset {name!r} not present; place the LIBSVM file under "
            f"{data_dir()} (or set OKSELECT_DATA) to run this check"
        )
    return p


def blob_stream(T: int, d: int, seed: int, sep: float = 1.2, noise: float = 0.7):
    """Two separable Gaussian blobs, shuffled."""
    rng = np.random.default_rng(seed)
    half = T // 2
    X = np.vstack(
        [rng.normal(sep, noise, (half, d)), rng.normal(-sep, noise, (T - half, d))]
    )
    y = np.concatenate([np.ones(half, int), -np.ones(T - half, int)])
    perm = rng.permutation(T)
    return X[perm], y[perm]


def store_example(store: ExampleStore, x, y, x_sqnorm=None) -> int:
    """Store (x, y), passing the squared norm that the store takes from its caller.

    A caller that offers one ``x`` many times builds it once as a float array
    and passes its ``x_sqnorm``; otherwise both are computed here.
    """
    if x_sqnorm is None:
        x = np.asarray(x, dtype=float)
        x_sqnorm = float(x @ x)
    return store.add(x, y, x_sqnorm)


def offer(reservoir, x, y, x_sqnorm=None) -> bool:
    """Offer (x, y) to ``reservoir`` as the hinge learner does: store it, observe
    its slot, and free the slot unless the reservoir kept it. True if it was kept.
    ``x_sqnorm`` is as for :func:`store_example`."""
    slot = store_example(reservoir.store, x, y, x_sqnorm)
    kept = reservoir.observe(slot)
    reservoir.store.release_if_unreferenced(slot)
    return kept


def random_expansion(spec, store: ExampleStore, n_atoms: int, rng, scale: float = 1.0):
    """A one-kernel expansion with random coefficients, and its buffer: the
    atoms' slots in insertion order, each membership holding one store reference."""
    ex = KernelExpansions((spec,), store)
    buffer = []
    for _ in range(n_atoms):
        slot = store_example(store, rng.normal(size=store.dim), rng.choice([-1, 1]))
        ex.coef[0, slot] = scale * rng.normal()
        store.incref(slot)
        buffer.append(slot)
    ex.recompute_sq_norms()
    return ex, buffer


def coeffs(ex: KernelExpansions, i: int = 0) -> dict:
    """Kernel i's nonzero coefficients as a slot -> coefficient map."""
    return {int(s): float(ex.coef[i, s]) for s in np.flatnonzero(ex.coef[i])}


def value(ex: KernelExpansions, i: int, x) -> float:
    """f_i(x) from the expansion's own one-pass kernel rows."""
    x = np.asarray(x, dtype=float)
    return float(ex.coef[i] @ ex.rows(x, float(x @ x))[i])


def brute_norm_sq(spec, store: ExampleStore, coeffs: dict) -> float:
    """Independent O(B^2) norm oracle via scalar kernel evaluations."""
    total = 0.0
    for a in coeffs:
        for b in coeffs:
            total += coeffs[a] * coeffs[b] * kernel_eval(spec, store.X[a], store.X[b])
    return total


def brute_value(spec, store: ExampleStore, coeffs: dict, x) -> float:
    """Independent evaluation oracle via scalar kernel evaluations."""
    return sum(c * kernel_eval(spec, store.X[s], x) for s, c in coeffs.items())


def guess_coeffs(reservoir) -> dict:
    """The reservoir's gradient guess as a slot -> coefficient map: {slot_j: -y_j / |V|}."""
    m = len(reservoir.sample)
    return {int(s): -float(reservoir.store.label[s]) / m for s in reservoir.sample}


def brute_guess_sq_norm(reservoir, spec) -> float:
    """O(M^2) squared norm of the reservoir's gradient guess under ``spec``."""
    return brute_norm_sq(spec, reservoir.store, guess_coeffs(reservoir))


def column_oracle(spec, X, row_sqnorms, x, x_sqnorm):
    """k(x_j, x) for the rows of ``X``, written out once per kernel kind."""
    dots = X @ x
    if spec.kind == "gaussian":
        sq = np.maximum(row_sqnorms + x_sqnorm - 2.0 * dots, 0.0)
        return np.exp(-sq / (2.0 * spec.param**2))
    return dots**spec.param


def gram_oracle(spec, X, row_sqnorms):
    """Gram matrix of the rows of ``X``, written out once per kernel kind."""
    dots = X @ X.T
    if spec.kind == "gaussian":
        sq = np.maximum(row_sqnorms[:, None] + row_sqnorms[None, :] - 2.0 * dots, 0.0)
        return np.exp(-sq / (2.0 * spec.param**2))
    return dots**spec.param


def scan_refcounts(store: ExampleStore, buffers=()) -> dict:
    """Exhaustively recount references: one per membership of each buffer
    (a kernel buffer, a reservoir sample, an archive). Coefficients hold none."""
    counts: dict[int, int] = {}
    for buf in buffers:
        for slot in buf:
            counts[slot] = counts.get(slot, 0) + 1
    return counts


def assert_refcounts_conserved(store: ExampleStore, buffers=()):
    counts = scan_refcounts(store, buffers)
    for slot in np.flatnonzero(store.live):
        assert store.refs[slot] == counts.get(slot, 0), f"refcount mismatch at slot {slot}"
    for slot, n in counts.items():
        assert store.live[slot] and store.refs[slot] == n
