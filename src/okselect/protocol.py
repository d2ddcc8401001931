"""The round protocol the learners share.

Every learner plays the same round: ``predict(x)`` checks the features and
returns the pre-update view, then ``update(x, y)`` consumes the label,
reusing the pending prediction when it was made for the same ``x``, and
returns the round's :class:`RoundRecord`; :func:`run_stream` plays a whole
stream through that round. The two budgeted selectors share
the core of their configuration; its ``"scaled"`` rate is
lambda_i = lambda_scale * U / sqrt(B) (the benchmark rule, with
lambda_scale in {2, 1, 0.5}) and each selector supplies its ``"theory"`` rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import KernelSpec

__all__ = ["Prediction", "RoundRecord", "SelectorConfig", "check_features", "run_stream", "same_example"]


def check_features(x, dim: int) -> tuple[np.ndarray, float]:
    """``x`` as a float (dim,) vector and its squared norm.

    Raises ValueError on a wrong shape, or when ``x`` is not finite or its
    squared norm overflows.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise ValueError(f"expected a ({dim},) feature vector, got shape {x.shape}")
    xsq = float(x @ x)
    if not math.isfinite(xsq):
        raise ValueError("feature vector is not finite or its squared norm overflows")
    return x, xsq


def same_example(pending: np.ndarray, x) -> bool:
    """True when ``x`` is the checked ``pending`` example: the same object, or the same shape and values."""
    return pending is x or np.array_equal(pending, np.asarray(x, dtype=float))


@dataclass
class Prediction:
    """Pre-update view of one round."""

    x: np.ndarray
    x_sqnorm: float
    per_kernel: np.ndarray  # f_{t,i}(x_t)
    guess_values: np.ndarray  # guess gradient evaluated at x_t, per kernel
    weights: np.ndarray  # Hedge distribution p_t
    aggregate: float
    label: int


@dataclass
class RoundRecord:
    """What happened in one round, per kernel where applicable. The fields
    from ``branch`` on are selector-only: the raker leaves them at their defaults."""

    t: int
    label: int
    truth: int
    mistake: bool
    aggregate: float
    per_kernel: np.ndarray
    losses: np.ndarray
    branch: list | None = None  # "skip" | "proxy" | "sampled"
    prob: np.ndarray | None = None  # Bernoulli success probability (nan when not drawn)
    coin: np.ndarray | None = None  # realized draw (-1 not drawn / 0 / 1)
    gap_sq: np.ndarray | None = None  # ||grad - guess||^2 (0 when the margin held)
    removed: np.ndarray | None = None  # True where a half-removal (or restart) fired
    reservoir_accepted: bool = False
    extras: dict = field(default_factory=dict)


def run_stream(learner, X, y, each_round=None) -> tuple[int, float]:
    """Play the stream ``(X[t], y[t])`` through ``learner``: predict, then update, every round.

    A round binds ``x = X[t]`` once and passes that object to both calls, so
    ``update`` reuses the pending prediction by identity. ``y`` is an array
    of labels. ``each_round``, when given, receives every round's
    :class:`RoundRecord` in order. Returns (mistakes, cumulative loss), both
    read off the records: the loss is ``learner.loss`` at the pre-update
    aggregate.
    """
    loss = learner.loss
    mistakes = 0
    cum_loss = 0.0
    for t, label in enumerate(y.tolist()):
        x = X[t]
        learner.predict(x)
        rec = learner.update(x, label)
        mistakes += rec.mistake
        cum_loss += loss.value(rec.aggregate, rec.truth)
        if each_round is not None:
            each_round(rec)
    return mistakes, cum_loss


@dataclass
class SelectorConfig:
    """The fields both budgeted selectors share; a subclass adds its own
    fields, its checks (after these) and its ``theory_rate``."""

    kernels: tuple[KernelSpec, ...]
    dim: int
    budget: int
    ball_radius: float | None = None  # default sqrt(budget)
    lambda_scale: float = 1.0
    lambda_rule: str = "scaled"  # or "theory"
    removal: str = "half"  # or "restart"
    seed: int = 0

    def __post_init__(self):
        if not self.kernels:
            raise ValueError("need at least one kernel")
        if self.removal not in ("half", "restart"):
            raise ValueError("removal must be 'half' or 'restart'")
        if self.lambda_rule not in ("scaled", "theory"):
            raise ValueError("lambda_rule must be 'scaled' or 'theory'")
        for name, value in (("ball_radius", self.ball_radius), ("lambda_scale", self.lambda_scale)):
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")

    @property
    def radius(self) -> float:
        return float(self.ball_radius) if self.ball_radius is not None else math.sqrt(self.budget)

    def learning_rate(self) -> float:
        if self.lambda_rule == "theory":
            return self.theory_rate()
        return self.lambda_scale * self.radius / math.sqrt(self.budget)

    def theory_rate(self) -> float:
        raise NotImplementedError
