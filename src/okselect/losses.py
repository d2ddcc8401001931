"""Loss functions: hinge for the margin learner, smooth losses for the
shared-buffer learner.

A smooth loss carries two constants: G1 bounds |dl/du| everywhere, and G2
bounds the self-similarity |dl/du| <= G2 * l(u, y). The logistic loss
satisfies both with G1 = G2 = 1.
"""

from __future__ import annotations

import math

__all__ = ["HingeLoss", "LogisticLoss", "check_label"]


def check_label(y) -> float:
    y = float(y)
    if y not in (-1.0, 1.0):
        raise ValueError(f"label must be -1 or +1, got {y}")
    return y


class HingeLoss:
    """max(0, 1 - y*u). The subgradient at the kink y*u == 1 is 0 (the
    update condition is the strict inequality y*u < 1)."""

    def value(self, u: float, y) -> float:
        y = check_label(y)
        return max(0.0, 1.0 - y * u)

    def deriv(self, u: float, y) -> float:
        y = check_label(y)
        return -y if y * u < 1.0 else 0.0


class LogisticLoss:
    """ln(1 + exp(-y*u)), evaluated through the branch that only ever
    exponentiates non-positive arguments."""

    G1 = 1.0
    G2 = 1.0

    def value(self, u: float, y) -> float:
        y = check_label(y)
        z = y * u
        if z >= 0.0:
            return math.log1p(math.exp(-z))
        return -z + math.log1p(math.exp(z))

    def deriv(self, u: float, y) -> float:
        y = check_label(y)
        z = y * u
        if z >= 0.0:
            e = math.exp(-z)
            return -y * e / (1.0 + e)
        return -y / (1.0 + math.exp(z))
