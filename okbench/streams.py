"""Seeded synthetic streams shaped like the paper's two LIBSVM datasets.

The real mushrooms and phishing files are not part of the repository, so
the benchmark generates streams with their shapes. Each generator returns
a CSR matrix and +/-1 labels, the form a parsed LIBSVM file has, so that
turning it into the learner's dense rows is left to ``okselect.data``.
The same seed always gives the same stream; :func:`stream_digest` lets two
runs show that they saw identical inputs.
"""

from __future__ import annotations

import hashlib

import numpy as np
import scipy.sparse as sp

__all__ = ["onehot_stream", "dense_stream", "stream_digest"]


def onehot_stream(seed: int, rounds: int = 8124, attrs: int = 28, levels: int = 4, tie: float = 0.75):
    """One-hot categorical stream shaped like mushrooms (T=8124, d=112).

    Each class has a preferred level per attribute; an attribute takes its
    class's preferred level with probability ``tie`` and a uniform level
    otherwise.
    """
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(rounds) < 0.5, 1, -1)
    pref = rng.integers(0, levels, size=(2, attrs))
    tied = rng.random((rounds, attrs)) < tie
    noise = rng.integers(0, levels, size=(rounds, attrs))
    cats = np.where(tied, pref[(y > 0).astype(int)], noise)
    cols = (np.arange(attrs) * levels + cats).ravel()
    indptr = np.arange(0, rounds * attrs + 1, attrs)
    X = sp.csr_matrix((np.ones(rounds * attrs), cols, indptr), shape=(rounds, attrs * levels))
    return X, y


def dense_stream(seed: int, rounds: int = 11055, dim: int = 68, rule_size: int = 10, flip: float = 0.05):
    """Dense ternary stream shaped like min-max normalised phishing.

    Features are drawn uniformly from {0, 0.5, 1}. Labels are the sign of
    a random linear rule over ``rule_size`` features, and exactly
    ``round(flip * rounds)`` of them are flipped.
    """
    rng = np.random.default_rng(seed)
    dense = rng.integers(0, 3, size=(rounds, dim)) / 2.0
    support = rng.choice(dim, size=rule_size, replace=False)
    weights = rng.normal(size=rule_size)
    y = np.where((dense[:, support] - 0.5) @ weights >= 0.0, 1, -1)
    flipped = rng.choice(rounds, size=round(flip * rounds), replace=False)
    y[flipped] = -y[flipped]
    return sp.csr_matrix(dense), y


def stream_digest(X: np.ndarray, y) -> str:
    """SHA-256 over the dense float64 rows and the int64 labels."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(X, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(y, dtype=np.int64).tobytes())
    return h.hexdigest()
