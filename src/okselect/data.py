"""Dataset ingestion and synthetic stream generation.

Datasets are immutable after construction: a name, a sparse feature matrix
and a vector of +/-1 labels; a run report echoes the name and the config.
The text format is one example per line, ``label index:value ...`` with
1-based ascending indices (empty feature lists are valid all-zero rows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .kernels import _count

__all__ = [
    "Dataset",
    "LibsvmFormatError",
    "parse_libsvm",
    "serialize_libsvm",
    "normalize_minmax",
    "permute",
    "gen_lowerbound",
]


class LibsvmFormatError(ValueError):
    pass


_MAX_INDEX = int(np.iinfo(np.int64).max)  # the column indices and the width are int64


@dataclass
class Dataset:
    name: str
    X: sp.csr_matrix
    y: np.ndarray
    _dense: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def num_examples(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def dense_features(self) -> np.ndarray:
        """The features as one C-contiguous float64 (T, d) array, built once and cached.

        ``toarray`` already returns a fresh array, so only a non-float64
        matrix pays for a second, converting copy.
        """
        if self._dense is None:
            self._dense = self.X.toarray().astype(float, copy=False)
        return self._dense


def parse_libsvm(path) -> Dataset:
    """Parse a sparse text dataset.

    Exactly two distinct raw labels are required; the numerically larger
    one maps to +1. Malformed lines, non-ascending indices, indices past the
    int64 range, and non-finite labels or values raise
    :class:`LibsvmFormatError` with the offending line number.
    """
    raw_labels = []
    indptr = [0]
    indices = []
    values = []
    max_index = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            try:
                label = float(parts[0])
            except ValueError as exc:
                raise LibsvmFormatError(f"{path}:{lineno}: bad label {parts[0]!r}") from exc
            if not math.isfinite(label):
                raise LibsvmFormatError(f"{path}:{lineno}: non-finite label {parts[0]!r}")
            raw_labels.append(label)
            prev = 0
            for tok in parts[1:]:
                try:
                    idx_s, val_s = tok.split(":", 1)
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError as exc:
                    raise LibsvmFormatError(f"{path}:{lineno}: bad pair {tok!r}") from exc
                if idx <= prev:
                    raise LibsvmFormatError(
                        f"{path}:{lineno}: indices must be ascending and 1-based (saw {idx} after {prev})"
                    )
                if idx > _MAX_INDEX:
                    raise LibsvmFormatError(f"{path}:{lineno}: index {idx} is past the int64 range")
                if not math.isfinite(val):
                    raise LibsvmFormatError(f"{path}:{lineno}: non-finite value {val_s!r}")
                prev = idx
                indices.append(idx - 1)
                values.append(val)
            max_index = max(max_index, prev)
            indptr.append(len(indices))
    if not raw_labels:
        raise LibsvmFormatError(f"{path}: empty dataset")
    distinct = sorted(set(raw_labels))
    if len(distinct) != 2:
        raise LibsvmFormatError(
            f"{path}: expected exactly two classes, found {len(distinct)}: {distinct[:5]}"
        )
    hi = distinct[1]
    y = np.array([1 if lab == hi else -1 for lab in raw_labels], dtype=int)
    X = sp.csr_matrix(
        (np.array(values, dtype=float), np.array(indices, dtype=np.int64), np.array(indptr, dtype=np.int64)),
        shape=(len(raw_labels), max_index),
    )
    return Dataset(
        name=str(path),
        X=X,
        y=y,
    )


def serialize_libsvm(ds: Dataset, path):
    """Write the dataset back out; finite decimal values round-trip exactly
    (the shortest float repr is parsed back to the same bits)."""
    X = ds.X.tocsr()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for t in range(ds.num_examples):
            row = X.getrow(t)
            pairs = " ".join(
                f"{j + 1}:{repr(float(v))}" for j, v in zip(row.indices, row.data)
            )
            label = "+1" if ds.y[t] > 0 else "-1"
            fh.write(f"{label} {pairs}".rstrip() + "\n")


def normalize_minmax(ds: Dataset) -> Dataset:
    """Affine per-feature map onto [0, 1]; constant features map to 0.

    The map runs in place on one fresh dense copy of the features, which
    the result keeps as its ``dense_features()``; the input caches nothing.
    """
    dense = ds.X.toarray().astype(float, copy=False)
    lo = dense.min(axis=0)
    span = dense.max(axis=0) - lo
    nz = span > 0
    dense -= lo
    dense /= np.where(nz, span, 1.0)
    dense[:, ~nz] = 0.0
    return Dataset(name=ds.name, X=sp.csr_matrix(dense), y=ds.y.copy(), _dense=dense)


def permute(ds: Dataset, seed: int) -> Dataset:
    """Seeded uniform shuffle; the multiset of examples is preserved."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(ds.num_examples)
    return Dataset(name=ds.name, X=ds.X[order], y=ds.y[order])


def gen_lowerbound(budget: int, rounds: int, seed: int) -> Dataset:
    """Adversarial stream over 3*budget standard basis vectors.

    The first 3B rounds present e_1, ..., e_{3B} with labels alternating
    +1, -1, +1, ...; every later round redraws one of those pairs uniformly
    with replacement. Requires ints budget >= 1, rounds >= 3 * budget, seed >= 0.
    """
    budget = _count(budget, "budget")
    base = 3 * budget
    rounds = _count(rounds, "rounds", minimum=base)
    seed = _count(seed, "seed", minimum=0)
    rng = np.random.default_rng(seed)
    base_labels = np.where(np.arange(1, base + 1) % 2 == 1, 1, -1)
    tail = rng.integers(0, base, size=rounds - base)
    col = np.concatenate([np.arange(base), tail])
    y = np.concatenate([base_labels, base_labels[tail]]).astype(int)
    X = sp.csr_matrix(
        (np.ones(rounds), col, np.arange(rounds + 1)),
        shape=(rounds, base),
    )
    return Dataset(
        name=f"lowerbound(B={budget},T={rounds})",
        X=X,
        y=y,
    )
