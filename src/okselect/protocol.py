"""The round protocol the learners share.

Every learner plays the same round: ``predict(x)`` checks the features,
computes the K per-kernel values and returns :func:`mix` of them, a
:class:`Prediction`; then ``update(x, y)`` opens with :func:`pending`, which
checks the label and reuses the pending prediction when it was made for this
very ``x`` object, and closes with :meth:`RoundRecord.of`. :func:`run_stream`
plays a whole stream through that round. The two budgeted selectors share
the core of their configuration and its one rate, lambda_i =
lambda_scale * U / sqrt(B) (the benchmark rule, with lambda_scale in
{2, 1, 0.5}); each selector names the lambda_scale of its theorem's rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kernels import KernelGrid, KernelSpec, _check_specs, _count, _is_finite
from .losses import check_label

__all__ = ["Prediction", "RoundRecord", "SelectorConfig", "check_features", "check_norm_change", "check_self_values", "mix",
           "pending", "run_stream"]


def check_features(x, dim: int) -> tuple[np.ndarray, float]:
    """``x`` as a float (dim,) vector and its squared norm.

    Raises ValueError on a wrong shape, or when ``x`` is not finite or its
    squared norm overflows.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise ValueError(f"expected a ({dim},) feature vector, got shape {x.shape}")
    try:
        xsq = float(x.dot(x))
    except RuntimeWarning:  # numpy's overflow warning, when warnings are errors
        xsq = math.inf
    if not math.isfinite(xsq):
        raise ValueError("feature vector is not finite or its squared norm overflows")
    return x, xsq


def check_self_values(grid: KernelGrid, x_sqnorm: float):
    """Raise ValueError when k_i(x, x) = (x @ x)^p of a polynomial kernel of ``grid`` overflows.

    A Gaussian kernel's is 1, so an all-Gaussian grid passes. Python's float
    power raises OverflowError where numpy's would warn and give inf, so the
    check takes a few scalar powers and never meets numpy's warning rules.
    """
    for _, degree in grid.poly:
        try:
            x_sqnorm**degree
        except OverflowError:
            raise ValueError("a kernel's self-similarity k(x, x) overflows") from None


def check_norm_change(c: float, k_xx: float, t: int):
    """Raise ValueError when a sampled step c k(x, .) would change a squared norm by a c^2 k(x, x) past the
    float range. A learner checks it before Hedge, so that its cached norm never overflows and a round's
    outcome does not hang on its branch."""
    if not math.isfinite(c * c * k_xx):
        raise ValueError(f"a sampled step's norm change c^2 k(x, x) overflows at round {t}")


class Prediction(NamedTuple):
    """Pre-update view of one round, built by :func:`mix`."""

    # The first three fields are fixed in this order, the raker's old bare
    # tuple, because the benchmark harness reads pred[2] and pred[1].
    per_kernel: np.ndarray  # f_{t,i}(x_t)
    aggregate: float
    label: int
    x: np.ndarray
    x_sqnorm: float
    weights: np.ndarray  # mixture distribution p_t
    cache: object = None  # the learner's own intermediates of the round, for its update


def mix(x, x_sqnorm: float, per_kernel, weights, cache=None) -> Prediction:
    """The round's prediction: the ``weights`` mixture of ``per_kernel`` and its sign (sign(0) is +1)."""
    agg = float(weights.dot(per_kernel))
    return Prediction(per_kernel, agg, 1 if agg >= 0 else -1, x, x_sqnorm, weights, cache)


def pending(learner, x, y) -> tuple[float, Prediction]:
    """Open ``learner``'s update of a round: the checked label and the round's prediction.

    The prediction is ``learner._last`` when it was made for this very ``x``
    object; otherwise ``learner.predict(x)`` makes it. ``predict`` writes
    nothing but ``_last``, so for an equal copy of ``x`` it makes the same bits.
    A bad label or ``x`` raises ValueError before any state changes. Then
    the pending prediction is cleared and ``learner.t`` advances.
    """
    y = check_label(y)
    pred = learner._last
    if pred is None or pred.x is not x:
        pred = learner.predict(x)
    learner._last = None
    learner.t += 1
    return y, pred


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

    @classmethod
    def of(cls, t: int, pred: Prediction, y, losses, **selector_fields) -> "RoundRecord":
        """Round ``t``'s record: the common fields from its prediction, its label ``y`` and the per-kernel ``losses``."""
        truth = int(y)
        return cls(t, pred.label, truth, pred.label != truth, pred.aggregate, pred.per_kernel, losses,
                   **selector_fields)


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


def learning_rate(lambda_scale, radius, budget) -> float:
    """The selectors' one rate, lambda_scale * radius / sqrt(budget); inf where a float cannot hold it."""
    try:
        return lambda_scale * radius / math.sqrt(budget)
    except OverflowError:  # an int operand past the float range
        return math.inf


@dataclass
class SelectorConfig:
    """The fields both budgeted selectors share; a subclass adds its own
    fields and its checks (after these). ``kernels`` is an iterable of
    KernelSpecs, stored as a tuple, ``dim`` and ``budget`` are ints >= 1 and
    ``seed`` an int >= 0 within the float range (a numpy int is stored as a
    Python int), ``ball_radius`` (or None) and ``lambda_scale`` finite
    numbers > 0 and the learning rate finite, or ValueError."""

    kernels: tuple[KernelSpec, ...]
    dim: int
    budget: int
    ball_radius: float | None = None  # default sqrt(budget)
    lambda_scale: float = 1.0
    removal: str = "half"  # or "restart"
    seed: int = 0

    def __post_init__(self):
        self.kernels = _check_specs(self.kernels)
        if self.removal not in ("half", "restart"):
            raise ValueError("removal must be 'half' or 'restart'")
        for name, value in (("ball_radius", self.ball_radius), ("lambda_scale", self.lambda_scale)):
            if value is not None and not (_is_finite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        self.budget = _count(self.budget, "budget")
        self.dim = _count(self.dim, "dim")
        self.seed = _count(self.seed, "seed", minimum=0)
        rate = self.learning_rate()
        if not _is_finite(rate):
            raise ValueError(f"learning rate lambda_scale * U / sqrt(B) must be finite, got {rate!r}")

    @property
    def radius(self) -> float:
        return float(self.ball_radius) if self.ball_radius is not None else math.sqrt(self.budget)

    def learning_rate(self) -> float:
        return learning_rate(self.lambda_scale, self.radius, self.budget)
