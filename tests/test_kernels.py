import math

import numpy as np
import pytest

from okselect.kernels import (
    KernelSpec,
    feature_distance,
    gaussian,
    kernel_column,
    kernel_eval,
    kernel_rows,
    pairwise,
    polynomial,
    self_values,
)

from conftest import column_oracle, gram_oracle


def test_gaussian_identity_is_one():
    x = np.array([0.3, -0.7])
    assert kernel_eval(gaussian(1.0), x, x) == 1.0
    assert self_values((gaussian(1.0), gaussian(3.0)), x @ x).tolist() == [1.0, 1.0]


def test_gaussian_closed_form():
    val = kernel_eval(gaussian(1.0), np.array([1.0, 0.0]), np.array([0.0, 0.0]))
    assert val == pytest.approx(math.exp(-0.5), abs=1e-12)


def test_polynomial_orthogonal_vectors():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    assert kernel_eval(polynomial(2), e1, e2) == 0.0
    assert kernel_eval(polynomial(2), e1, e1) == 1.0


def test_bad_spec_rejected():
    with pytest.raises(ValueError):
        KernelSpec("triangle", 1.0)
    with pytest.raises(ValueError):
        gaussian(0.0)


def test_feature_distance_identity_and_formula():
    spec = gaussian(1.0)
    x = np.array([1.0, 0.0])
    z = np.array([0.0, 0.0])
    assert feature_distance(spec, x, x) == 0.0
    expect = math.sqrt(2.0 - 2.0 * math.exp(-0.5))
    assert feature_distance(spec, x, z) == pytest.approx(expect, abs=1e-12)


def test_feature_distance_far_limit():
    spec = gaussian(1.0)
    d = feature_distance(spec, np.array([1e4, 0.0]), np.array([-1e4, 0.0]))
    assert d == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_distance_squared_matches_expansion():
    rng = np.random.default_rng(7)
    spec = gaussian(0.8)
    for _ in range(1000):
        x, z = rng.normal(size=3), rng.normal(size=3)
        lhs = feature_distance(spec, x, z) ** 2
        kxx, kzz = self_values((spec,), [x @ x, z @ z])[0]
        rhs = kxx + kzz - 2.0 * kernel_eval(spec, x, z)
        assert abs(lhs - rhs) <= 1e-12


def test_triangle_inequality():
    rng = np.random.default_rng(8)
    for spec in (gaussian(0.5), gaussian(4.0), polynomial(2)):
        for _ in range(300):
            x, z, w = (rng.normal(size=4) for _ in range(3))
            dxz = feature_distance(spec, x, z)
            assert dxz <= feature_distance(spec, x, w) + feature_distance(spec, w, z) + 1e-9


def test_gaussian_range():
    rng = np.random.default_rng(9)
    spec = gaussian(2.0)
    for _ in range(500):
        v = kernel_eval(spec, rng.normal(size=5), rng.normal(size=5))
        assert 0.0 < v <= 1.0


def test_batched_column_matches_scalar():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(20, 6))
    sq = np.einsum("ij,ij->i", X, X)
    x = rng.normal(size=6)
    xsq = float(x @ x)
    for spec in (gaussian(1.3), polynomial(3)):
        col = kernel_column(spec, X, sq, x, xsq)
        for j in range(20):
            assert col[j] == pytest.approx(kernel_eval(spec, X[j], x), rel=1e-10, abs=1e-12)
        # feature-space distances from one column, as the hinge learner's proxy search takes them
        dcol = np.sqrt(np.maximum(self_values((spec,), sq)[0] + self_values((spec,), xsq)[0] - 2.0 * col, 0.0))
        for j in range(20):
            assert dcol[j] == pytest.approx(feature_distance(spec, X[j], x), rel=1e-9, abs=1e-9)


def test_rows_match_column_and_gram_bit_for_bit():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(30, 6))
    sq = np.einsum("ij,ij->i", X, X)
    x = rng.normal(size=6)
    xsq = float(x @ x)
    specs = (gaussian(0.5, 0), polynomial(1, 1), gaussian(4.0, 2), polynomial(3, 3))
    rows = kernel_rows(specs, *pairwise(X, sq, x, xsq))
    grams = kernel_rows(specs, *pairwise(X, sq, X, sq))
    assert rows.shape == (4, 30) and grams.shape == (4, 30, 30)
    for i, spec in enumerate(specs):
        assert np.array_equal(rows[i], column_oracle(spec, X, sq, x, xsq))
        assert np.array_equal(grams[i], gram_oracle(spec, X, sq))
        assert np.array_equal(kernel_column(spec, X, sq, X, sq), grams[i])
    dots = X @ x
    poly = (polynomial(1, 0), polynomial(2, 1))
    assert np.array_equal(kernel_rows(poly, dots), [dots**1.0, dots**2.0])
    with pytest.raises(ValueError):
        kernel_rows(specs, dots)


def test_gram_and_cross_match_scalar():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(8, 4))
    Z = rng.normal(size=(5, 4))
    sqx = np.einsum("ij,ij->i", X, X)
    sqz = np.einsum("ij,ij->i", Z, Z)
    for spec in (gaussian(0.7), polynomial(2)):
        G = kernel_column(spec, X, sqx, X, sqx)
        C = kernel_column(spec, X, sqx, Z, sqz)
        for a in range(8):
            for b in range(8):
                assert G[a, b] == pytest.approx(kernel_eval(spec, X[a], X[b]), rel=1e-10, abs=1e-12)
            for b in range(5):
                assert C[a, b] == pytest.approx(kernel_eval(spec, X[a], Z[b]), rel=1e-10, abs=1e-12)
        assert np.allclose(G, G.T)
