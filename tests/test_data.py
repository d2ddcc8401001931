import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from okselect import gen_lowerbound, normalize_minmax, parse_libsvm, permute, serialize_libsvm
from okselect.data import Dataset, LibsvmFormatError


def write(tmp_path, text, name="ds.txt"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestParse:
    def test_basic_line(self, tmp_path):
        ds = parse_libsvm(write(tmp_path, "+1 3:0.5 7:1.0\n-1 1:2.0\n"))
        assert ds.num_examples == 2
        assert ds.dim == 7
        assert ds.y.tolist() == [1, -1]
        x0 = ds.dense_features()[0]
        assert x0[2] == 0.5 and x0[6] == 1.0 and x0.sum() == 1.5

    def test_blank_lines_are_skipped(self, tmp_path):
        ds = parse_libsvm(write(tmp_path, "\n+1 1:0.5\n  \n\n-1 2:1.0\n\n"))
        assert ds.num_examples == 2 and ds.y.tolist() == [1, -1]

    def test_larger_raw_label_maps_to_plus_one(self, tmp_path):
        # the {1, 2} convention: 2 -> +1, 1 -> -1
        ds = parse_libsvm(write(tmp_path, "1 1:1\n2 1:2\n2 2:1\n"))
        assert ds.y.tolist() == [-1, 1, 1]

    def test_empty_feature_list_is_valid(self, tmp_path):
        ds = parse_libsvm(write(tmp_path, "-1\n+1 2:1.0\n"))
        assert ds.num_examples == 2
        assert np.allclose(ds.dense_features()[0], 0.0)

    def test_malformed_line_reports_line_number(self, tmp_path):
        with pytest.raises(LibsvmFormatError, match=":2:"):
            parse_libsvm(write(tmp_path, "+1 1:1.0\n+1 oops\n"))

    def test_single_class_rejected(self, tmp_path):
        with pytest.raises(LibsvmFormatError, match="two classes"):
            parse_libsvm(write(tmp_path, "+1 1:1\n+1 2:1\n"))

    def test_three_classes_rejected(self, tmp_path):
        with pytest.raises(LibsvmFormatError, match="two classes"):
            parse_libsvm(write(tmp_path, "1 1:1\n2 1:1\n3 1:1\n"))

    def test_non_ascending_indices_rejected(self, tmp_path):
        with pytest.raises(LibsvmFormatError, match="ascending"):
            parse_libsvm(write(tmp_path, "+1 3:1.0 2:1.0\n-1 1:1\n"))

    def test_non_finite_value_rejected(self, tmp_path):
        with pytest.raises(LibsvmFormatError, match="non-finite"):
            parse_libsvm(write(tmp_path, "+1 1:inf\n-1 1:1\n"))


def test_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(45)
    lines = []
    for t in range(40):
        label = "+1" if t % 2 == 0 else "-1"
        idxs = sorted(rng.choice(np.arange(1, 12), size=rng.integers(0, 6), replace=False))
        pairs = " ".join(f"{j}:{rng.normal():.6f}" for j in idxs)
        lines.append(f"{label} {pairs}".strip())
    src = write(tmp_path, "\n".join(lines) + "\n")
    ds = parse_libsvm(src)
    out = tmp_path / "copy.txt"
    serialize_libsvm(ds, out)
    ds2 = parse_libsvm(out)
    assert ds2.y.tolist() == ds.y.tolist()
    assert (ds2.X != ds.X).nnz == 0  # bit-exact sparse equality


class TestNormalize:
    def test_constant_feature_maps_to_zero(self, tmp_path):
        ds = parse_libsvm(write(tmp_path, "+1 1:5 2:1\n-1 1:5 2:3\n"))
        nd = normalize_minmax(ds)
        dense = nd.dense_features()
        assert np.allclose(dense[:, 0], 0.0)
        assert np.allclose(dense[:, 1], [0.0, 1.0])

    def test_symmetric_span_midpoint(self, tmp_path):
        ds = parse_libsvm(write(tmp_path, "+1 1:-2\n-1 1:2\n+1\n"))
        dense = normalize_minmax(ds).dense_features()
        # value 0 inside a [-2, 2] span lands at 0.5
        assert dense[2, 0] == pytest.approx(0.5)

    def test_range_and_idempotence(self):
        rng = np.random.default_rng(46)
        import scipy.sparse as sp

        from okselect.data import Dataset

        X = sp.csr_matrix(rng.normal(size=(50, 7)) * rng.uniform(0.5, 10, size=7))
        ds = Dataset(name="rand", X=X, y=rng.choice([-1, 1], size=50))
        nd = normalize_minmax(ds)
        dense = nd.dense_features()
        assert dense.min() >= 0.0 and dense.max() <= 1.0
        again = normalize_minmax(nd).dense_features()
        assert np.allclose(again, dense, atol=1e-12)

    def test_matches_the_per_column_formula_bit_for_bit(self):
        rng = np.random.default_rng(53)
        raw = rng.normal(size=(40, 6)) * rng.uniform(0.1, 30.0, size=6)
        raw[:, 2] = 3.7  # a constant column
        raw[:, 4] = 0.0  # an empty one
        lo, hi = raw.min(axis=0), raw.max(axis=0)
        span = hi - lo
        nz = span > 0
        want = np.zeros_like(raw)
        want[:, nz] = (raw[:, nz] - lo[nz]) / span[nz]
        nd = normalize_minmax(Dataset(name="cols", X=sp.csr_matrix(raw), y=np.ones(40, dtype=int)))
        assert nd.dense_features().tobytes() == want.tobytes()
        assert (nd.X != sp.csr_matrix(want)).nnz == 0

    def test_one_dense_copy_handed_to_the_result(self):
        # a phishing-shaped ternary stream: 11055 x 68, two thirds nonzero
        rng = np.random.default_rng(54)
        X = sp.csr_matrix(rng.integers(-1, 2, size=(11055, 68)).astype(float))
        ds = Dataset(name="ternary", X=X, y=np.ones(11055, dtype=int))
        tracemalloc.start()
        try:
            nd = normalize_minmax(ds)
            dense = nd.dense_features()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.8 * dense.nbytes
        assert ds._dense is None  # the input caches no dense copy
        assert dense.flags.c_contiguous and dense.flags.owndata
        assert np.array_equal(nd.X.toarray(), dense)


class TestPermute:
    def _toy(self):
        import scipy.sparse as sp

        from okselect.data import Dataset

        X = sp.csr_matrix(np.arange(40, dtype=float).reshape(20, 2))
        return Dataset(name="toy", X=X, y=np.array([(-1) ** i for i in range(20)]))

    def test_same_seed_same_order(self):
        ds = self._toy()
        a = permute(ds, 3)
        b = permute(ds, 3)
        assert np.array_equal(a.dense_features(), b.dense_features())
        assert np.array_equal(a.y, b.y)

    def test_different_seeds_differ(self):
        ds = self._toy()
        a = permute(ds, 1)
        b = permute(ds, 2)
        assert not np.array_equal(a.dense_features(), b.dense_features())

    def test_multiset_preserved(self):
        ds = self._toy()
        p = permute(ds, 9)
        assert sorted(p.dense_features()[:, 0].tolist()) == sorted(
            ds.dense_features()[:, 0].tolist()
        )
        assert sorted(p.y.tolist()) == sorted(ds.y.tolist())


class TestLowerboundGenerator:
    def test_basis_construction(self):
        ds = gen_lowerbound(budget=2, rounds=6, seed=0)
        assert ds.dim == 6
        dense = ds.dense_features()
        assert np.array_equal(dense, np.eye(6))
        assert ds.y.tolist() == [1, -1, 1, -1, 1, -1]

    def test_tail_replays_prefix(self):
        ds = gen_lowerbound(budget=2, rounds=100, seed=1)
        dense = ds.dense_features()
        base = dense[:6]
        labels = ds.y[:6]
        for t in range(6, 100):
            j = int(np.argmax(dense[t]))
            assert np.array_equal(dense[t], base[j])
            assert ds.y[t] == labels[j]

    def test_tail_frequencies_uniform(self):
        budget, rounds = 3, 30_000
        ds = gen_lowerbound(budget=budget, rounds=rounds, seed=2)
        dense = ds.dense_features()
        base = 3 * budget
        cols = np.argmax(dense[base:], axis=1)
        counts = np.bincount(cols, minlength=base)
        n = rounds - base
        p = 1.0 / base
        se = math.sqrt(n * p * (1 - p))
        for c in counts:
            assert abs(c - n * p) <= 3 * se + 1e-9

    def test_rounds_below_three_budgets_rejected(self):
        with pytest.raises(ValueError):
            gen_lowerbound(budget=10, rounds=29, seed=0)

    def test_round_trip_through_text_format(self, tmp_path):
        ds = gen_lowerbound(budget=2, rounds=12, seed=3)
        out = tmp_path / "lb.txt"
        serialize_libsvm(ds, out)
        ds2 = parse_libsvm(out)
        assert ds2.num_examples == 12
        assert ds2.dim == 6
        assert np.array_equal(ds2.dense_features(), ds.dense_features())


class TestDenseFeatures:
    def test_built_once_without_a_second_copy(self):
        ds = gen_lowerbound(budget=50, rounds=20_000, seed=1)
        tracemalloc.start()
        try:
            dense = ds.dense_features()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * dense.nbytes

    def test_int_matrix_becomes_float64(self):
        X = sp.csr_matrix(np.array([[0, 3, 0], [-2, 0, 7]], dtype=np.int32))
        dense = Dataset(name="ints", X=X, y=np.array([1, -1])).dense_features()
        assert dense.dtype == np.float64
        assert dense.flags.c_contiguous and dense.flags.owndata
        assert np.array_equal(dense, X.toarray())

    def test_second_call_returns_the_cached_array(self):
        ds = gen_lowerbound(budget=2, rounds=12, seed=0)
        assert ds.dense_features() is ds.dense_features()
