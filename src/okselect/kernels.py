"""Kernel evaluation and feature-space geometry shared by every learner.

Two kernel families are supported: Gaussian kernels (the benchmark grid)
and homogeneous polynomial kernels (used by the adversarial stream
generator). Gaussian values are computed through squared Euclidean
distances, so batched queries against a matrix of stored examples reduce
to one matrix-vector product plus cached row norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "KernelSpec",
    "gaussian",
    "polynomial",
    "kernel_eval",
    "self_eval",
    "kernel_column",
    "kernel_rows",
    "kernel_gram",
    "kernel_cross",
    "feature_distance",
    "feature_distance_column",
]


@dataclass(frozen=True)
class KernelSpec:
    """One candidate kernel.

    ``kind`` is ``"gaussian"`` (param = bandwidth sigma > 0, so that
    k(x, z) = exp(-||x - z||^2 / (2 sigma^2))) or ``"polynomial"``
    (param = degree p > 0, k(x, z) = <x, z>^p). ``index`` is the kernel's
    position in the candidate grid; per-kernel random streams and report
    columns key off it.
    """

    kind: str
    param: float
    index: int = 0

    def __post_init__(self):
        if self.kind not in ("gaussian", "polynomial"):
            raise ValueError(f"unknown kernel kind: {self.kind!r}")
        if not self.param > 0:
            raise ValueError("kernel parameter must be positive")


def gaussian(sigma: float, index: int = 0) -> KernelSpec:
    return KernelSpec("gaussian", float(sigma), index)


def polynomial(degree: float, index: int = 0) -> KernelSpec:
    return KernelSpec("polynomial", float(degree), index)


def kernel_eval(spec: KernelSpec, x, z) -> float:
    """k(x, z) for two feature vectors."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if spec.kind == "gaussian":
        diff = x - z
        return float(np.exp(-(diff @ diff) / (2.0 * spec.param**2)))
    return float((x @ z) ** spec.param)


def self_eval(spec: KernelSpec, x, x_sqnorm: float | None = None) -> float:
    """k(x, x). Exactly 1 for Gaussian kernels."""
    if spec.kind == "gaussian":
        return 1.0
    if x_sqnorm is None:
        x = np.asarray(x, dtype=float)
        x_sqnorm = float(x @ x)
    return float(x_sqnorm**spec.param)


def kernel_column(spec, X, row_sqnorms, x, x_sqnorm=None):
    """k(x_j, x) for every row x_j of ``X``, vectorized.

    ``row_sqnorms`` carries the cached ||x_j||^2 of the rows; ``x_sqnorm``
    may be passed to avoid recomputing ||x||^2 for repeated queries.
    """
    dots = X @ x
    if spec.kind == "gaussian":
        if x_sqnorm is None:
            x_sqnorm = float(x @ x)
        sq = np.maximum(row_sqnorms + x_sqnorm - 2.0 * dots, 0.0)
        return np.exp(-sq / (2.0 * spec.param**2))
    return dots**spec.param


def kernel_rows(specs, sqdist, dots):
    """k_i for every kernel i of ``specs``, from distances and inner products.

    ``sqdist`` and ``dots`` are arrays of one shape holding ||x_j - z_j||^2
    (clipped at zero) and <x_j, z_j> for the same pairs; the result stacks
    one array of that shape per kernel. For the rows of a matrix against
    one query it is the (K, n) matrix of k_i(x_j, x), computed with the
    same rounding as :func:`kernel_column`. Gaussian kernels read only
    ``sqdist`` and polynomial kernels only ``dots``, so ``sqdist`` may be
    None for a grid of polynomial kernels.
    """
    if sqdist is None:
        out = np.empty((len(specs),) + dots.shape)
    else:
        two_var = np.array([2.0 * spec.param**2 if spec.kind == "gaussian" else 1.0 for spec in specs])
        out = np.exp(-sqdist / two_var.reshape((-1,) + (1,) * dots.ndim))
    for i, spec in enumerate(specs):
        if spec.kind == "polynomial":
            out[i] = dots**spec.param
        elif sqdist is None:
            raise ValueError("Gaussian kernels need the squared distances")
    return out


def kernel_gram(spec, X, row_sqnorms):
    """Full Gram matrix of the rows of ``X``."""
    dots = X @ X.T
    if spec.kind == "gaussian":
        sq = np.maximum(row_sqnorms[:, None] + row_sqnorms[None, :] - 2.0 * dots, 0.0)
        return np.exp(-sq / (2.0 * spec.param**2))
    return dots**spec.param


def kernel_cross(spec, X1, sqnorms1, X2, sqnorms2):
    """Cross-kernel matrix k(x1_i, x2_j) between two row sets."""
    dots = X1 @ X2.T
    if spec.kind == "gaussian":
        sq = np.maximum(sqnorms1[:, None] + sqnorms2[None, :] - 2.0 * dots, 0.0)
        return np.exp(-sq / (2.0 * spec.param**2))
    return dots**spec.param


def feature_distance(spec: KernelSpec, x, z) -> float:
    """||k(x,.) - k(z,.)|| in the kernel's feature space.

    The radicand is clamped at zero to absorb floating-point noise near
    x == z.
    """
    sq = self_eval(spec, x) + self_eval(spec, z) - 2.0 * kernel_eval(spec, x, z)
    return float(np.sqrt(max(sq, 0.0)))


def feature_distance_column(spec, X, row_sqnorms, x, x_sqnorm=None):
    """Feature-space distances from x to every row of ``X``, vectorized."""
    if x_sqnorm is None:
        x_sqnorm = float(x @ x)
    col = kernel_column(spec, X, row_sqnorms, x, x_sqnorm)
    if spec.kind == "gaussian":
        sq = 2.0 - 2.0 * col
    else:
        sq = row_sqnorms**spec.param + x_sqnorm**spec.param - 2.0 * col
    return np.sqrt(np.maximum(sq, 0.0))
