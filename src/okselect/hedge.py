"""Prediction-with-expert-advice aggregation over the kernel grid.

Weights are never materialized: only cumulative losses and the running
second moment are stored, and the distribution is derived from them with
max-subtraction, so nothing underflows for long streams. It is derived once
per update (with one expert it is [1.0] for good) and shared by the next
round's prediction and update. The
adaptive rate is eta_t = sqrt(2 ln K) / sqrt(1 + sum_tau sum_i p_{tau,i}
c_{tau,i}^2), with eta_1 = sqrt(2 ln K).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["HedgeState"]


class HedgeState:
    """Adaptive multiplicative-weights state over K experts."""

    def __init__(self, num_experts: int):
        if num_experts < 1:
            raise ValueError("need at least one expert")
        self.num_experts = num_experts
        self.cum_loss = np.zeros(num_experts)
        self.second_moment = 0.0
        self._eta1 = float(np.sqrt(2.0 * np.log(num_experts)))  # sqrt(2 ln K), the first round's rate
        self._p = self._softmax()

    def rate(self) -> float:
        return self._eta1 / math.sqrt(1.0 + self.second_moment)

    def _softmax(self) -> np.ndarray:
        p = -self.rate() * self.cum_loss
        p -= max(p.tolist())  # exact, and faster than numpy's max on K entries
        np.exp(p, out=p)
        p /= np.add.reduce(p)
        p.setflags(write=False)  # shared by every caller until the next update
        return p

    def distribution(self) -> np.ndarray:
        """Current simplex point: softmax of -eta * cum_loss (read-only)."""
        return self._p

    def update(self, losses) -> np.ndarray:
        """Charge one round of non-negative losses; returns the p used.

        Raises ValueError, before any state changes, on a wrong number of
        losses, on a NaN, infinite or negative one, on one above sqrt(max/2)
        ~ 9.48e153, or when the second moment would overflow. The moment
        accumulates with the distribution held *before* this update.
        With one expert the distribution is exactly [1.0] at every rate, so
        the read-only array is kept and no softmax runs, and the moment adds
        c_0 * c_0 in Python: 1.0 * c_0^2 is exact, so that is the bits of
        ``p.dot(c * c)``. The moment, ``cum_loss`` and ``rate()`` advance as
        for any K.
        """
        c = np.asarray(losses, dtype=float)
        if c.shape != (self.num_experts,):
            raise ValueError(f"expected {self.num_experts} losses, got shape {c.shape}")
        # Checked as Python floats before any arithmetic can warn: min catches a negative loss,
        # and twice the square of max an infinite one or one whose moment could overflow (p sums
        # to 1 only up to rounding). A NaN, which min and max may pass over, makes the moment NaN.
        cl = c.tolist()
        top = max(cl)
        if not (min(cl) >= 0.0 and math.isfinite(2.0 * top * top)):
            raise ValueError("losses must be finite and non-negative, and at most about 9.48e153")
        p = self._p
        second_moment = self.second_moment + (top * top if self.num_experts == 1 else float(p.dot(c * c)))
        if not second_moment < math.inf:
            raise ValueError("losses must be finite and non-negative, and keep the second moment finite")
        self.second_moment = second_moment
        self.cum_loss += c
        if self.num_experts > 1:
            self._p = self._softmax()
        return p
