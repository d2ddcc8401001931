"""Kernel evaluation and feature-space geometry shared by every learner.

Two kernel families are supported: Gaussian kernels (the benchmark grid)
and homogeneous polynomial kernels (used by the adversarial stream
generator). Gaussian values are computed through squared Euclidean
distances, so batched queries against a matrix of stored examples reduce
to one matrix product plus cached row norms: :func:`pairwise` gives the
inner products and distances, and :func:`kernel_rows` derives every
kernel of a grid from that one pass.

A learner evaluates the same grid every round, so a :class:`KernelGrid`
(an immutable tuple of specs) computes once what each call would
otherwise rebuild: the Gaussian divisors 2 sigma^2, the polynomial
degrees, whether any kernel reads distances, and, for an all-Gaussian
grid, the shared self-similarity vector; per feature dimension, it also
keeps the constants of the rounding bounds of :meth:`KernelGrid.pair_errors`.
:func:`kernel_rows` and :func:`self_values` take a grid and convert
nothing, so a caller builds its grid once.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KernelSpec",
    "KernelGrid",
    "gaussian",
    "polynomial",
    "kernel_eval",
    "pairwise",
    "sq_distances",
    "kernel_rows",
    "kernel_column",
    "self_values",
    "feature_distance",
]


def _is_finite(value) -> bool:
    """True for a finite real number; a bool is not a number, nor an int past the float range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _count(value, name: str, minimum: int = 1, error: type = ValueError) -> int:
    """``value`` as a Python int when it is an int >= ``minimum`` (numpy's included) that a float can hold.

    Otherwise raises ``error`` naming the value ``name``. A bool is not a count.
    """
    if not (isinstance(value, numbers.Integral) and _is_finite(value) and value >= minimum):
        raise error(f"{name} must be >= {minimum} and an integer within the float range, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class KernelSpec:
    """One candidate kernel.

    ``kind`` is ``"gaussian"`` (param = bandwidth sigma > 0, so that
    k(x, z) = exp(-||x - z||^2 / (2 sigma^2))) or ``"polynomial"``
    (param = degree p > 0, k(x, z) = <x, z>^p). The param must be a finite
    number > 0 (a bool or a string is none) and is kept as a float; a width
    must keep the constants derived from it usable: the divisor -2 sigma^2
    finite and nonzero, and so 1/sigma finite. ``index`` labels the kernel's
    position in its candidate grid; no state is keyed off it, since the
    learners and the reservoir name a kernel by its position in the grid
    they were given.
    """

    kind: str
    param: float
    index: int = 0

    def __post_init__(self):
        if self.kind not in ("gaussian", "polynomial"):
            raise ValueError(f"unknown kernel kind: {self.kind!r}")
        if not (_is_finite(self.param) and self.param > 0):
            raise ValueError(f"kernel parameter must be a finite number > 0, got {self.param!r}")
        object.__setattr__(self, "param", float(self.param))
        if self.kind == "gaussian":
            try:  # the grid's divisor, as KernelGrid computes it; a float power raises on overflow
                divisor = -2.0 * self.param**2
            except OverflowError:
                divisor = -math.inf
            if not (divisor != 0 and _is_finite(divisor)):  # sigma^2 > 0 holds 1/sigma within the float range
                raise ValueError(f"kernel parameter must be a Gaussian width whose -2 sigma^2 is finite and "
                                 f"nonzero, got {self.param!r}")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class KernelGrid(tuple):
    """An immutable tuple of kernel specs with its per-call constants.

    ``neg_two_var`` is the read-only (K,) vector of -2 sigma^2 (-1.0 at a
    polynomial kernel) that the squared distances are divided by, ``poly``
    the (position, degree) pairs of the polynomial kernels, ``gaussian``
    whether any kernel is Gaussian (only those read distances), and
    ``self_ones`` the read-only (K,) vector of ones that
    :func:`self_values` returns for a scalar squared norm when every kernel
    is Gaussian (None otherwise). A slice of a grid is a plain tuple;
    :meth:`part` gives the grid of a slice. :meth:`pair_errors` bounds
    how far two evaluations of one kernel value can differ in the last
    bits.
    """

    def __new__(cls, specs):
        grid = super().__new__(cls, specs)
        # exp(sqdist / -2 sigma^2) is bit for bit exp(-sqdist / 2 sigma^2): IEEE division is sign-symmetric
        neg_two_var = [-2.0 * spec.param**2 if spec.kind == "gaussian" else -1.0 for spec in grid]
        grid.neg_two_var = _read_only(np.array(neg_two_var, dtype=float))
        grid.poly = tuple((i, spec.param) for i, spec in enumerate(grid) if spec.kind == "polynomial")
        grid.gaussian = len(grid.poly) < len(grid)
        grid.self_ones = None if grid.poly else _read_only(np.ones(len(grid)))
        grid._parts = {}  # the grids part() has built, by slice indices
        grid._slack = {}  # the constants pair_errors() has built, by dimension
        return grid

    def part(self, kernels: slice) -> KernelGrid:
        """The grid of the kernels in a slice: the grid itself when the slice covers it,
        otherwise a grid built on the first call and kept for the later ones."""
        key = kernels.indices(len(self))
        if key == (0, len(self), 1):
            return self
        part = self._parts.get(key)
        if part is None:
            part = self._parts[key] = KernelGrid(self[kernels])
        return part

    def pair_errors(self, dim: int, n_x: float, n_z: float):
        """Yield (i, e) for each kernel i whose two values at a pair (x, z) of ``dim``-vectors lie within e.

        Both values come from :func:`kernel_rows`: one from :func:`pairwise`
        over a matrix of rows, the other from the ``ddot`` of x and z and,
        for a Gaussian, of x - z with itself. ``n_x`` and ``n_z`` are x.dot(x)
        and z.dot(z). Gaussian kernels and polynomial kernels of integer
        degree yield a bound, in grid order, unless it overflows; other
        kernels yield none. The constants are built on the first call for
        ``dim`` and kept.
        """
        slack = self._slack.get(dim)
        if slack is None:
            slack = self._slack[dim] = _pair_slack(self, dim)
        gauss, poly = slack
        for i, a, b in gauss:
            yield i, a * (n_x + n_z) + b
        if poly:
            pp = math.sqrt(n_x + _NORM_FLOOR) * math.sqrt(n_z + _NORM_FLOOR)
            for i, c, p, b in poly:
                try:
                    e = c * pp**p + b
                except OverflowError:
                    continue
                yield i, e


# The unit roundoff of a double, and a floor added to squared norms: below
# it, a sum of squares may have lost any share of its value to underflow.
_U = 2.0**-53
_NORM_FLOOR = 2.0**-900


def _pair_slack(grid: KernelGrid, dim: int) -> tuple[tuple, tuple]:
    """The constants of :meth:`KernelGrid.pair_errors`: (i, a, b) per Gaussian, (i, c, p, b) per polynomial.

    Each doubles a first-order bound. A d-term inner product, in any order,
    with or without fused multiply-adds, errs by at most g_d <= (d + 1) u
    times the sum of its terms' magnitudes, plus d subnormal ulps; adding
    F = 2^-900 to each stored squared norm keeps those ulps, and the norms'
    own underflow, far below the relative terms. Let N = n_x + n_z + 2 F.

    Gaussian, e = a (n_x + n_z) + b, b = 2 F a + 64 u: pairwise's clipped
    distance is within (2 g_d + 3 u) N of s = ||x - z||^2 <= 2 N, and the
    ``ddot`` of the rounded x - z within g_(d+2) s, so the two distances
    differ by under 4 (d + 2) u N. Both are divided by the same
    -2 sigma^2, and exp(-t) is 1-Lipschitz for t >= 0; each division's
    rounding moves exp by at most u / e, and each exp errs by at most 4
    ulps of a value <= 1.

    Polynomial of integer degree p, e = c P^p + b, with
    P = sqrt(n_x + F) sqrt(n_z + F): the two inner products are each
    within g_d P of <x, z>, and |v^p - w^p| <= p max(|v|, |w|)^(p - 1)
    |v - w|, so the powers differ by 2 p g_d (1 + g_d)^(p - 1) P^p, plus at
    most 4 ulps of each. The factor (1 + 4 (d + 2) u)^(p + 1) covers the
    (1 + g_d) factors and the rounding of P; b = c 2^-1021 + 2^-1068 covers
    a P^p or a power that underflows.
    """
    g = (dim + 2) * _U
    gauss, poly = [], []
    for i, spec in enumerate(grid):
        if spec.kind == "gaussian":
            a = 8.0 * g / -float(grid.neg_two_var[i])
            gauss.append((i, a, 2.0 * _NORM_FLOOR * a + 64.0 * _U))
        elif spec.param.is_integer():
            p = spec.param
            try:
                c = (4.0 * p * (dim + 2) + 32.0) * _U * (1.0 + 4.0 * g) ** (p + 1.0)
            except OverflowError:
                continue
            poly.append((i, c, p, c * 2.0**-1021 + 2.0**-1068))
    return tuple(gauss), tuple(poly)


def _check_specs(kernels) -> tuple[KernelSpec, ...]:
    """``kernels`` as a tuple; ValueError unless it is an iterable of at least one :class:`KernelSpec`."""
    try:
        specs = tuple(kernels)
    except TypeError:
        raise ValueError(f"kernels must be an iterable of KernelSpec entries, got {kernels!r}") from None
    if not specs:
        raise ValueError("need at least one kernel")
    for spec in specs:
        if not isinstance(spec, KernelSpec):
            raise ValueError(f"kernels must hold KernelSpec entries, got {spec!r}")
    return specs


def gaussian(sigma: float, index: int = 0) -> KernelSpec:
    return KernelSpec("gaussian", sigma, index)


def polynomial(degree: float, index: int = 0) -> KernelSpec:
    return KernelSpec("polynomial", degree, index)


def kernel_eval(spec: KernelSpec, x, z) -> float:
    """k(x, z) for two feature vectors."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if spec.kind == "gaussian":
        diff = x - z
        return float(np.exp(-diff.dot(diff) / (2.0 * spec.param**2)))
    return float(x.dot(z) ** spec.param)


def sq_distances(dots, row_sqnorms, z_sqnorms):
    """||x_j - z||^2 clipped at zero, from <x_j, z> and the squared norms.

    ``dots`` is (n,) for one query z or (n, m) for m query rows.
    """
    if dots.ndim == 2:
        row_sqnorms = row_sqnorms[:, None]
    return np.maximum(row_sqnorms + z_sqnorms - 2.0 * dots, 0.0)


def pairwise(X, row_sqnorms, z, z_sqnorms, distances: bool = True):
    """(<x_j, z>, clipped ||x_j - z||^2) for every row x_j of ``X``.

    ``z`` is one query vector with squared norm ``z_sqnorms``, giving two
    (n,) arrays, or a matrix of query rows with their squared norms, giving
    two (n, m) arrays. The result feeds :func:`kernel_rows`. With
    ``distances=False`` the distances are None, which is enough for a grid
    of polynomial kernels.
    """
    dots = X.dot(z.T)
    return dots, sq_distances(dots, row_sqnorms, z_sqnorms) if distances else None


def kernel_rows(grid: KernelGrid, dots, sqdist=None):
    """k_i for every kernel i of ``grid``, from inner products and distances.

    ``dots`` and ``sqdist`` are arrays of one shape holding <x_j, z_j> and
    ||x_j - z_j||^2 (clipped at zero) for the same pairs, as
    :func:`pairwise` returns them; the result stacks one array of that
    shape per kernel. Gaussian kernels read only ``sqdist`` and polynomial
    kernels only ``dots``, so ``sqdist`` may be None for a grid of
    polynomial kernels.
    """
    if sqdist is None:
        if grid.gaussian:
            raise ValueError("Gaussian kernels need the squared distances")
        out = np.empty((len(grid),) + dots.shape)
    else:
        out = np.divide(sqdist, grid.neg_two_var.reshape((-1,) + (1,) * dots.ndim))
        np.exp(out, out=out)
    for i, degree in grid.poly:
        out[i] = dots**degree
    return out


def kernel_column(spec, X, row_sqnorms, z, z_sqnorms):
    """k(x_j, z) of one kernel for every row x_j of ``X``.

    ``z`` is a query vector or a matrix of query rows, as in
    :func:`pairwise`, so this also gives Gram and cross-kernel matrices.
    """
    return kernel_rows(KernelGrid((spec,)), *pairwise(X, row_sqnorms, z, z_sqnorms))[0]


def self_values(grid: KernelGrid, sqnorms):
    """k_i(z, z) for every kernel i of ``grid`` and every z with squared norm in ``sqnorms``.

    Exactly 1 for Gaussian kernels. For an all-Gaussian grid and a scalar
    ``sqnorms`` the result is the grid's shared, read-only ``self_ones``.
    """
    if grid.self_ones is not None and isinstance(sqnorms, float):
        return grid.self_ones
    sqnorms = np.asarray(sqnorms, dtype=float)
    out = np.ones((len(grid),) + sqnorms.shape)
    for i, degree in grid.poly:
        out[i] = sqnorms**degree
    return out


def feature_distance(spec: KernelSpec, x, z) -> float:
    """||k(x,.) - k(z,.)|| in the kernel's feature space.

    The radicand is clamped at zero to absorb floating-point noise near
    x == z.
    """
    sq = kernel_eval(spec, x, x) + kernel_eval(spec, z, z) - 2.0 * kernel_eval(spec, x, z)
    return float(np.sqrt(max(sq, 0.0)))
