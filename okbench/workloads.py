"""The benchmark's workloads: which stream feeds which learner, and why.

Every workload is a single-process closed loop: the next example is offered
only after ``update`` returns, which is the online protocol itself. A
workload has two halves. ``generate`` is the benchmark's own stream
generator and is not timed. ``setup`` is what a user of the library pays
before the first prediction (``okselect.data`` calls and learner
construction) and is timed as ``setup_s``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from okselect import data
from okselect.hinge_learner import HingeKernelSelector, HingeSelectorConfig
from okselect.kernels import gaussian, polynomial
from okselect.losses import HingeLoss, LogisticLoss
from okselect.raker import RakerBaseline, RakerConfig
from okselect.smooth_learner import SmoothKernelSelector, SmoothSelectorConfig

from okbench.streams import dense_stream, onehot_stream

__all__ = ["Workload", "Stream", "WORKLOADS"]

SIGMAS = (0.25, 1.0, 4.0, 16.0, 64.0)


@dataclass
class Stream:
    """A set-up workload: dense rows, labels, a fresh learner and its loss."""

    X: np.ndarray
    y: np.ndarray
    learner: object
    loss: object


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    layer: str  # the learner's module: hinge_learner, smooth_learner or raker
    budget: int | None  # the store budget B; None for the store-less raker
    amr_ceiling: float  # a learner that learns the stream stays below this AMR_percent
    generate: Callable[[int], object]
    setup: Callable[[object, int], Stream]


def _grid():
    return tuple(gaussian(s, i) for i, s in enumerate(SIGMAS))


def _dense_rows(raw, name):
    X, y = raw
    ds = data.Dataset(name=name, X=X, y=y)
    return ds.dense_features(), ds.y


def _hinge_onehot(raw, seed):
    X, y = _dense_rows(raw, "onehot")
    learner = HingeKernelSelector(HingeSelectorConfig(
        kernels=_grid(), dim=X.shape[1], budget=400, horizon=len(y),
        reservoir_size=10, lambda_scale=2.0, seed=seed,
    ))
    return Stream(X, y, learner, learner.loss)


def _smooth_dense(raw, seed):
    X, y = _dense_rows(raw, "dense")
    learner = SmoothKernelSelector(SmoothSelectorConfig(
        kernels=_grid(), dim=X.shape[1], budget=400, loss=LogisticLoss(),
        lambda_scale=1.0, seed=seed,
    ))
    return Stream(X, y, learner, learner.loss)


def _smooth_lowerbound(raw, seed):
    ds = data.gen_lowerbound(budget=50, rounds=20000, seed=seed)
    X = ds.dense_features()
    learner = SmoothKernelSelector(SmoothSelectorConfig(
        kernels=(polynomial(1, 0),), dim=ds.dim, budget=25, loss=LogisticLoss(), seed=seed,
    ))
    return Stream(X, ds.y, learner, learner.loss)


def _raker_dense(raw, seed):
    X, y = _dense_rows(raw, "dense")
    learner = RakerBaseline(RakerConfig(
        kernels=_grid(), dim=X.shape[1], num_features=400,
        step_size=1.0 / math.sqrt(len(y)), loss=HingeLoss(), seed=seed,
    ))
    return Stream(X, y, learner, learner.config.loss)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="hinge_onehot",
            why="mushrooms-shaped one-hot stream (T=8124, d=112) into momd_h B=400 M=10: "
                "the only workload running the reservoir, the per-kernel buffers and add_scaled_many",
            layer="hinge_learner", budget=400, amr_ceiling=2.0,
            generate=onehot_stream, setup=_hinge_onehot,
        ),
        Workload(
            name="smooth_dense",
            why="phishing-shaped ternary stream (T=11055, d=68, 5% label noise) into momd_s B=400: "
                "full shared buffer, so rkhs.value and kernels dominate; reservoir and removal bypassed",
            layer="smooth_learner", budget=400, amr_ceiling=40.0,
            generate=dense_stream, setup=_smooth_dense,
        ),
        Workload(
            name="smooth_lowerbound",
            why="gen_lowerbound basis-vector stream (T=20000, d=150) into momd_s poly(1) K=1 B=25: "
                "cheapest rounds, so fixed per-round cost dominates; a half-removal every ~42 rounds",
            layer="smooth_learner", budget=25, amr_ceiling=50.0,
            generate=lambda seed: None, setup=_smooth_lowerbound,
        ),
        Workload(
            name="raker_dense",
            why="the smooth_dense stream (T=11055, d=68) into the raker random-feature baseline, "
                "D=400, hinge, eta=1/sqrt(T): the only workload that measures the raker layer",
            layer="raker", budget=None, amr_ceiling=50.0,
            generate=dense_stream, setup=_raker_dense,
        ),
    )
}
