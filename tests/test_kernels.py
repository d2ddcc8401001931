import ast
import math
from pathlib import Path

import numpy as np
import pytest

import okselect
from okselect.kernels import (
    KernelGrid,
    KernelSpec,
    feature_distance,
    gaussian,
    kernel_column,
    kernel_eval,
    kernel_rows,
    pairwise,
    polynomial,
    self_values,
    sq_distances,
)

from conftest import column_oracle, gram_oracle


def test_gaussian_identity_is_one():
    x = np.array([0.3, -0.7])
    assert kernel_eval(gaussian(1.0), x, x) == 1.0
    assert self_values(KernelGrid((gaussian(1.0), gaussian(3.0))), x @ x).tolist() == [1.0, 1.0]


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


def test_param_is_kept_as_a_float():
    # a bool, a numeric string or an int past the float range is rejected first
    # (tests/test_constructor_checks.py's NOT_A_KERNEL cases)
    spec = KernelSpec("polynomial", 2)
    assert spec.param == 2.0 and type(spec.param) is float


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
    grid = KernelGrid((spec,))
    for _ in range(1000):
        x, z = rng.normal(size=3), rng.normal(size=3)
        lhs = feature_distance(spec, x, z) ** 2
        kxx, kzz = self_values(grid, [x @ x, z @ z])[0]
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
        grid = KernelGrid((spec,))
        dcol = np.sqrt(np.maximum(self_values(grid, sq)[0] + self_values(grid, xsq)[0] - 2.0 * col, 0.0))
        for j in range(20):
            assert dcol[j] == pytest.approx(feature_distance(spec, X[j], x), rel=1e-9, abs=1e-9)


def test_rows_match_column_and_gram_bit_for_bit():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(30, 6))
    sq = np.einsum("ij,ij->i", X, X)
    x = rng.normal(size=6)
    xsq = float(x @ x)
    grid = KernelGrid((gaussian(0.5, 0), polynomial(1, 1), gaussian(4.0, 2), polynomial(3, 3)))
    rows = kernel_rows(grid, *pairwise(X, sq, x, xsq))
    grams = kernel_rows(grid, *pairwise(X, sq, X, sq))
    assert rows.shape == (4, 30) and grams.shape == (4, 30, 30)
    for i, spec in enumerate(grid):
        assert np.array_equal(rows[i], column_oracle(spec, X, sq, x, xsq))
        assert np.array_equal(grams[i], gram_oracle(spec, X, sq))
        assert np.array_equal(kernel_column(spec, X, sq, X, sq), grams[i])
    dots = X @ x
    poly = KernelGrid((polynomial(1, 0), polynomial(2, 1)))
    assert np.array_equal(kernel_rows(poly, dots), [dots**1.0, dots**2.0])
    with pytest.raises(ValueError):
        kernel_rows(grid, dots)


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


GRIDS = {
    "gaussian": (gaussian(0.5, 0), gaussian(2.0, 1), gaussian(8.0, 2)),
    "polynomial": (polynomial(1, 0), polynomial(2, 1), polynomial(3, 2)),
    "mixed": (gaussian(0.5, 0), polynomial(1, 1), gaussian(4.0, 2), polynomial(3, 3)),
}
SLICES = (slice(None), slice(1, 2), slice(1, None), slice(None, None, 2), slice(2, 0, -1), slice(0, 0))


def spec_rows(specs, dots, sqdist):
    """kernel_rows written out once per spec, from the definitions."""
    return np.array([np.exp(-sqdist / (2.0 * s.param**2)) if s.kind == "gaussian" else dots**s.param for s in specs])


def spec_self(specs, sqnorms):
    sqnorms = np.asarray(sqnorms, dtype=float)
    return np.array([np.ones(sqnorms.shape) if s.kind == "gaussian" else sqnorms**s.param for s in specs])


def pair_inputs():
    """(dots, sqdist) for 0-d, (n,), (n, m) and (2, n, m) pairs."""
    rng = np.random.default_rng(13)
    X, Z = rng.normal(size=(7, 3)), rng.normal(size=(4, 3))
    sqx, sqz = np.einsum("ij,ij->i", X, X), np.einsum("ij,ij->i", Z, Z)
    diff = X[0] - Z[0]
    d2, s2 = pairwise(X, sqx, Z, sqz)
    return [
        (np.asarray(X[0] @ Z[0]), np.asarray(diff @ diff)),
        pairwise(X, sqx, Z[0], sqz[0]),
        (d2, s2),
        (np.stack([d2, 2.0 * d2]), np.stack([s2, 0.5 * s2])),
    ]


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", GRIDS)
def test_grid_and_tuple_give_the_same_bits(name):
    """A grid of a tuple's specs gives the per-spec oracles' bits over that tuple."""
    specs = GRIDS[name]
    assert KernelGrid(specs) == specs and type(KernelGrid(specs)[1:]) is tuple
    sqnorm_inputs = (2.5, np.float64(0.75), np.asarray(1.5), np.array([0.0, 0.5, 3.0]), np.ones((2, 3)) * 1.25)
    for key in SLICES:
        plain = specs[key]
        grid = KernelGrid(plain)
        for dots, sqdist in pair_inputs():
            want = spec_rows(plain, dots, sqdist).reshape((len(plain),) + dots.shape)
            assert same_bits(kernel_rows(grid, dots, sqdist), want)
        for sq in sqnorm_inputs:
            want = spec_self(plain, sq).reshape((len(plain),) + np.shape(sq))
            assert same_bits(self_values(grid, sq), want)


def test_grid_constants_follow_the_spec_order():
    grid = KernelGrid(GRIDS["mixed"])
    rev = KernelGrid(GRIDS["mixed"][::-1])
    assert same_bits(rev.neg_two_var, grid.neg_two_var[::-1].copy())
    assert rev.poly == ((0, 3.0), (2, 1.0)) and rev.gaussian and rev.self_ones is None
    assert not rev.neg_two_var.flags.writeable


def test_all_gaussian_self_values_are_shared_and_read_only():
    grid = KernelGrid(GRIDS["gaussian"])
    ones = self_values(grid, 2.5)
    assert ones is grid.self_ones and self_values(grid, np.float64(7.0)) is ones
    assert ones.tolist() == [1.0, 1.0, 1.0] and not ones.flags.writeable
    with pytest.raises(ValueError):
        ones[0] = 2.0
    # an array of norms, or a grid with a polynomial kernel, gets a fresh array
    assert self_values(grid, np.array([2.5])).flags.writeable
    assert KernelGrid(GRIDS["mixed"]).self_ones is None
    assert self_values(KernelGrid(GRIDS["mixed"]), 2.5).flags.writeable


def test_gaussian_grid_without_distances_raises():
    dots = np.arange(3.0)
    for name in ("gaussian", "mixed"):
        with pytest.raises(ValueError, match="squared distances"):
            kernel_rows(KernelGrid(GRIDS[name]), dots)
    # a polynomial grid, or one of a mixed grid's polynomial kernels, reads no distances
    assert KernelGrid(GRIDS["mixed"][1:2]).gaussian is False
    assert same_bits(kernel_rows(KernelGrid(GRIDS["mixed"][1:2]), dots), np.array([dots**1.0]))
    poly = KernelGrid(GRIDS["polynomial"])
    assert same_bits(kernel_rows(poly, dots), spec_rows(GRIDS["polynomial"], dots, None))


@pytest.mark.parametrize("query", ["vector", "matrix", "syrk"])
def test_pairwise_keeps_the_bits_of_the_matmul_operator(query):
    """pairwise's inner products come from ndarray.dot, which calls the BLAS routine
    that the @ operator's matmul calls (dgemv, dgemm, or dsyrk for X times its own
    transpose), so they keep its bits. A numpy whose two paths part fails here."""
    rng = np.random.default_rng(14)
    for n, d in ((192, 112), (400, 68), (24, 150), (33, 20), (7, 3)):
        X = rng.normal(size=(n, d))
        sq = np.einsum("ij,ij->i", X, X)
        z = {"vector": rng.normal(size=d), "matrix": rng.normal(size=(10, d)), "syrk": X}[query]
        zsq = float(z @ z) if z.ndim == 1 else np.einsum("ij,ij->i", z, z)
        want = X @ z.T
        dots, sqdist = pairwise(X, sq, z, zsq)
        assert same_bits(dots, want), (n, d)
        assert same_bits(sqdist, sq_distances(want, sq, zsq)), (n, d)


def test_no_matmul_operator_in_the_library():
    """Every dense product in okselect is an ndarray.dot call or a named np.matmul, never
    the @ operator, whose generalized-ufunc dispatch costs more per call than dot."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(okselect.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    ]
    assert not found, f"@ operators at {found}"
