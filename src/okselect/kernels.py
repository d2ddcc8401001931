"""Kernel evaluation and feature-space geometry shared by every learner.

Two kernel families are supported: Gaussian kernels (the benchmark grid)
and homogeneous polynomial kernels (used by the adversarial stream
generator). Gaussian values are computed through squared Euclidean
distances, so batched queries against a matrix of stored examples reduce
to one matrix product plus cached row norms: :func:`pairwise` gives the
inner products and distances, and :func:`kernel_rows` derives every
kernel of a grid from that one pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "KernelSpec",
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


@dataclass(frozen=True)
class KernelSpec:
    """One candidate kernel.

    ``kind`` is ``"gaussian"`` (param = bandwidth sigma > 0, so that
    k(x, z) = exp(-||x - z||^2 / (2 sigma^2))) or ``"polynomial"``
    (param = degree p > 0, k(x, z) = <x, z>^p). ``index`` labels the
    kernel's position in its candidate grid; no state is keyed off it, since
    the learners and the reservoir name a kernel by its position in the
    grid they were given.
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
    dots = X @ z.T
    return dots, sq_distances(dots, row_sqnorms, z_sqnorms) if distances else None


def kernel_rows(specs, dots, sqdist=None):
    """k_i for every kernel i of ``specs``, from inner products and distances.

    ``dots`` and ``sqdist`` are arrays of one shape holding <x_j, z_j> and
    ||x_j - z_j||^2 (clipped at zero) for the same pairs, as
    :func:`pairwise` returns them; the result stacks one array of that
    shape per kernel. Gaussian kernels read only ``sqdist`` and polynomial
    kernels only ``dots``, so ``sqdist`` may be None for a grid of
    polynomial kernels.
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


def kernel_column(spec, X, row_sqnorms, z, z_sqnorms):
    """k(x_j, z) of one kernel for every row x_j of ``X``.

    ``z`` is a query vector or a matrix of query rows, as in
    :func:`pairwise`, so this also gives Gram and cross-kernel matrices.
    """
    return kernel_rows((spec,), *pairwise(X, row_sqnorms, z, z_sqnorms))[0]


def self_values(specs, sqnorms):
    """k_i(z, z) for every kernel i and every z with squared norm in ``sqnorms``.

    Exactly 1 for Gaussian kernels.
    """
    sqnorms = np.asarray(sqnorms, dtype=float)
    out = np.ones((len(specs),) + sqnorms.shape)
    for i, spec in enumerate(specs):
        if spec.kind == "polynomial":
            out[i] = sqnorms**spec.param
    return out


def feature_distance(spec: KernelSpec, x, z) -> float:
    """||k(x,.) - k(z,.)|| in the kernel's feature space.

    The radicand is clamped at zero to absorb floating-point noise near
    x == z.
    """
    sq = kernel_eval(spec, x, x) + kernel_eval(spec, z, z) - 2.0 * kernel_eval(spec, x, z)
    return float(np.sqrt(max(sq, 0.0)))
