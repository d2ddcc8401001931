import os
from pathlib import Path

import numpy as np
import pytest

from okselect import BudgetedFunction, ExampleStore
from okselect.kernels import kernel_eval


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


def random_function(spec, store: ExampleStore, n_atoms: int, rng, scale: float = 1.0):
    """A function with random coefficients whose atoms are all buffered."""
    f = BudgetedFunction(spec, store)
    for _ in range(n_atoms):
        slot = store.add(rng.normal(size=store.dim), rng.choice([-1, 1]))
        f.add_scaled(scale * rng.normal(), slot)
        f.buffer_append(slot)
    return f


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


def scan_refcounts(store: ExampleStore, functions=(), buffers=()) -> dict:
    """Exhaustively recount references: buffer memberships + nonzero
    coefficients across functions, plus memberships of extra buffers."""
    counts: dict[int, int] = {}
    for f in functions:
        for slot in f.own_buffer:
            counts[slot] = counts.get(slot, 0) + 1
        for slot in f.coeffs:
            counts[slot] = counts.get(slot, 0) + 1
    for buf in buffers:
        for slot in buf:
            counts[slot] = counts.get(slot, 0) + 1
    return counts


def assert_refcounts_conserved(store: ExampleStore, functions=(), buffers=()):
    counts = scan_refcounts(store, functions, buffers)
    for slot in np.flatnonzero(store.live):
        assert store.refs[slot] == counts.get(slot, 0), f"refcount mismatch at slot {slot}"
    for slot, n in counts.items():
        assert store.live[slot] and store.refs[slot] == n
