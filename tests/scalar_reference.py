"""Scalar reference learners for differential tests.

:class:`ScalarHinge` is momd_h written from the module docstring of
``okselect.hinge_learner``, and :class:`ScalarSmooth` is momd_s written from
that of ``okselect.smooth_learner``, both with none of the learners'
machinery: examples are kept by id in a list, each iterate is a dict of
coefficients, every kernel value comes from ``kernel_eval`` and every norm
is summed out pair by pair. Each draws its random decisions from the same
generators as its learner (``SeedSequence(seed).spawn(K + 1)`` for the
hinge learner's coins and reservoir, one ``SeedSequence(seed)`` generator
for the smooth learner's shared coin), so the two take the same random
decisions on the same stream.

The one place where they follow the learners' arithmetic rather than the
plainest formula is the proxy distance, k(x_j, x_j) + k(x, x) - 2 k(x_j, x)
under the square root, so that an exact duplicate is at the same distance
(zero) in both.

:func:`importance_weighted_coeffs` is the sampled branch's surrogate over
dict coefficients, the reference for ``hinge_learner._surrogate_weights``.

Two correct implementations that round differently can still take opposite
sides of a threshold that a quantity meets exactly in exact arithmetic: a
linear-kernel margin of exactly 1, say, that one of them computes a few
ulps below 1. Each round therefore reports ``tie``: whether one of its
decisions (the label's sign, a margin test, a proxy test, a zero gap or a
coin) was within ``TIE_TOL`` of its threshold, where the two may differ.
"""

from __future__ import annotations

import math

import numpy as np

from okselect.hinge_learner import HingeSelectorConfig, allocate_budgets
from okselect.kernels import kernel_eval
from okselect.smooth_learner import SmoothSelectorConfig

TIE_TOL = 1e-9


def near(a: float, b: float) -> bool:
    """Within rounding of each other, unless both are exactly 0 (an exact duplicate's distance and gamma at a zero gap)."""
    return (a != 0.0 or b != 0.0) and abs(a - b) <= TIE_TOL * max(abs(a), abs(b), 1.0)


def importance_weighted_coeffs(
    grad_coeffs: dict[int, float],
    guess_coeffs: dict[int, float],
    prob: float,
    accepted: bool,
) -> dict[int, float]:
    """Coefficients of (grad - guess)/prob * 1[accepted] + guess.

    This is the unbiased surrogate applied by the sampled branch:
    E[result] equals ``grad_coeffs`` whenever prob matches the acceptance
    probability.
    """
    out = dict(guess_coeffs)
    if accepted:
        for s, c in grad_coeffs.items():
            out[s] = out.get(s, 0.0) + c / prob
        for s, c in guess_coeffs.items():
            out[s] = out[s] - c / prob
    return {s: c for s, c in out.items() if c != 0.0}


class ScalarLearner:
    """What both references share: the examples by id, a dict iterate per
    kernel, kernel values computed once each, norms, projection and Hedge."""

    def __init__(self, config):
        self.config = config
        self.kernels = tuple(config.kernels)
        K = len(self.kernels)
        self.radius = config.radius
        self.rate = config.learning_rate()
        self.examples: list[tuple[np.ndarray, float]] = []  # id -> (x, y)
        self.coef: list[dict[int, float]] = [{} for _ in range(K)]
        self.cum_loss = [0.0] * K  # Hedge's cumulative losses
        self.second_moment = 0.0
        self._kernel_values: dict[tuple[int, int, int], float] = {}
        self._pending = None

    def k(self, i: int, a: int, b: int) -> float:
        """k_i between the examples with ids a and b."""
        key = (i, a, b) if a <= b else (i, b, a)
        if key not in self._kernel_values:
            self._kernel_values[key] = kernel_eval(self.kernels[i], self.examples[a][0], self.examples[b][0])
        return self._kernel_values[key]

    def value(self, i: int, coeffs: dict[int, float], e: int) -> float:
        return sum(c * self.k(i, s, e) for s, c in coeffs.items())

    def sq_norm(self, i: int, coeffs: dict[int, float]) -> float:
        return sum(ca * cb * self.k(i, a, b) for a, ca in coeffs.items() for b, cb in coeffs.items())

    def project(self, i: int):
        norm_sq = self.sq_norm(i, self.coef[i])
        if norm_sq > self.radius**2:
            scale = self.radius / math.sqrt(norm_sq)
            self.coef[i] = {s: c * scale for s, c in self.coef[i].items()}

    def weights(self) -> list[float]:
        """Hedge: softmax of -eta * cumulative loss, eta = sqrt(2 ln K) / sqrt(1 + second moment)."""
        eta = math.sqrt(2.0 * math.log(len(self.kernels))) / math.sqrt(1.0 + self.second_moment)
        z = [-eta * c for c in self.cum_loss]
        top = max(z)
        w = [math.exp(v - top) for v in z]
        total = sum(w)
        return [v / total for v in w]

    def hedge_update(self, p: list[float], losses: list[float]):
        self.second_moment += sum(pi * c * c for pi, c in zip(p, losses))
        self.cum_loss = [a + c for a, c in zip(self.cum_loss, losses)]


class ScalarHinge(ScalarLearner):
    """momd_h with dict coefficients and scalar kernel evaluations."""

    def __init__(self, config: HingeSelectorConfig):
        super().__init__(config)
        K = len(self.kernels)
        self.archive_cap, self.per_kernel_cap = allocate_budgets(config)
        seeds = np.random.SeedSequence(config.seed).spawn(K + 1)
        self.coin_rngs = [np.random.default_rng(s) for s in seeds[:K]]
        self.reservoir_rng = np.random.default_rng(seeds[K])
        self.buffers: list[list[int]] = [[] for _ in range(K)]  # ids, oldest first
        self.sample: list[int] = []
        self.archive: list[int] = []
        self.seen = 0
        self.gap_sums = [0.0] * K
        self.removals = [0] * K

    def guess_coeffs(self) -> dict[int, float]:
        """The guess -(1/|V|) sum_{j in V} y_j k(x_j, .) as an id -> coefficient map."""
        m = len(self.sample)
        return {j: -self.examples[j][1] / m for j in self.sample}

    # -- the round -----------------------------------------------------------

    def predict(self, x) -> dict:
        x = np.asarray(x, dtype=float)
        e = len(self.examples)
        self.examples.append((x, 0.0))  # the label is filled in by update
        guess = self.guess_coeffs()
        guess_values = [self.value(i, guess, e) for i in range(len(self.kernels))]
        per_kernel = [self.value(i, self.coef[i], e) - self.rate * g for i, g in enumerate(guess_values)]
        p = self.weights()
        aggregate = sum(pi * v for pi, v in zip(p, per_kernel))
        self._pending = (e, guess, guess_values, per_kernel, p)
        # an aggregate is exactly 0 in both only when each of its terms is
        terms = [self.k(i, s, e) for i in range(len(self.kernels)) for s in [*self.coef[i], *guess]]
        tie = abs(aggregate) <= TIE_TOL and any(terms)
        return {"per_kernel": per_kernel, "aggregate": aggregate, "label": 1 if aggregate >= 0 else -1, "tie": tie}

    def update(self, y: int) -> dict:
        e, guess, guess_values, per_kernel, p = self._pending
        y = float(y)
        self.examples[e] = (self.examples[e][0], y)
        K = len(self.kernels)
        rec = {"branch": ["skip"] * K, "coin": [-1] * K, "removed": [False] * K, "prob": [math.nan] * K,
               "gap_sq": [0.0] * K, "tie": False}
        losses = [max(0.0, 1.0 - y * v) for v in per_kernel]
        for i in range(K):
            rec["tie"] |= near(y * per_kernel[i], 1.0)
            if y * per_kernel[i] >= 1.0:
                continue
            # margin violated: the gradient is -y k(x, .)
            guess_sq = max(self.sq_norm(i, guess), 0.0)
            gap_sq = max(self.k(i, e, e) + 2.0 * y * guess_values[i] + guess_sq, 0.0)
            rec["gap_sq"][i] = gap_sq
            rec["tie"] |= 0.0 < gap_sq <= TIE_TOL
            self.gap_sums[i] += gap_sq
            gamma = gap_sq / math.sqrt(1.0 + self.gap_sums[i])
            buf = self.buffers[i]
            if buf:
                dists = [math.sqrt(max(self.k(i, j, j) + self.k(i, e, e) - 2.0 * self.k(i, j, e), 0.0)) for j in buf]
                nearest = dists.index(min(dists))  # the oldest of equally near examples
                rec["tie"] |= near(dists[nearest], gamma)
                if dists[nearest] <= gamma:
                    rec["branch"][i] = "proxy"
                    anchor = buf[nearest]
                    self.coef[i][anchor] = self.coef[i].get(anchor, 0.0) + self.rate * y
                    continue
            rec["branch"][i] = "sampled"
            if gap_sq == 0.0:
                # the gradient equals the guess: a deterministic step
                prob, accepted = 0.0, False
            else:
                prob = gap_sq / (gap_sq + guess_sq)
                draw = self.coin_rngs[i].random()
                accepted = draw < prob
                rec["tie"] |= near(draw, prob)
            rec["prob"][i] = prob
            rec["coin"][i] = int(accepted)
            if accepted and len(buf) == self.per_kernel_cap:
                if self.config.removal == "half":
                    # keep the oldest half; coefficients on the archive outside the buffer stay
                    for j in buf[len(buf) // 2 :]:
                        self.coef[i].pop(j, None)
                    del buf[len(buf) // 2 :]
                else:
                    buf.clear()
                    self.coef[i] = {}
                self.project(i)
                self.removals[i] += 1
                rec["removed"][i] = True
            # f_i <- f_i - rate * (guess + 1[accepted] (grad - guess) / prob)
            surrogate = dict(guess)
            if accepted:
                surrogate = {j: c - c / prob for j, c in guess.items()}
                surrogate[e] = -y / prob
                buf.append(e)
            for j, c in surrogate.items():
                self.coef[i][j] = self.coef[i].get(j, 0.0) - self.rate * c
        for i in range(K):
            self.project(i)
        self.hedge_update(p, losses)
        rec["losses"] = losses
        rec["reservoir_accepted"] = self.observe(e)
        return rec

    def observe(self, e: int) -> bool:
        """Uniform reservoir sampling with probability min(1, M/t), into a capped archive."""
        self.seen += 1
        if len(self.archive) >= self.archive_cap:
            return False
        M = self.config.reservoir_size
        if self.reservoir_rng.random() >= min(1.0, M / self.seen):
            return False
        if len(self.sample) == M:
            self.sample[int(self.reservoir_rng.integers(M))] = e
        else:
            self.sample.append(e)
        self.archive.append(e)
        return True


class ScalarSmooth(ScalarLearner):
    """momd_s with dict coefficients and scalar kernel evaluations."""

    def __init__(self, config: SmoothSelectorConfig):
        super().__init__(config)
        self.loss = config.loss
        self.rng = np.random.default_rng(np.random.SeedSequence(config.seed))
        self.buffer: list[int] = []  # ids, oldest first, shared by every kernel
        self.deriv_sum = 0.0
        self.removals = 0

    def step_all(self, c: float, e: int):
        """f_i <- f_i + c k_i(x_e, .) for every kernel, then project each onto the ball."""
        for i, coef in enumerate(self.coef):
            coef[e] = coef.get(e, 0.0) + c
            self.project(i)

    def predict(self, x) -> dict:
        x = np.asarray(x, dtype=float)
        e = len(self.examples)
        self.examples.append((x, 0.0))  # the label is filled in by update
        per_kernel = [self.value(i, self.coef[i], e) for i in range(len(self.kernels))]
        p = self.weights()
        aggregate = sum(pi * v for pi, v in zip(p, per_kernel))
        self._pending = (e, per_kernel, p, aggregate)
        terms = [self.k(i, s, e) for i in range(len(self.kernels)) for s in self.coef[i]]
        tie = abs(aggregate) <= TIE_TOL and any(terms)
        return {"per_kernel": per_kernel, "aggregate": aggregate, "label": 1 if aggregate >= 0 else -1, "tie": tie}

    def update(self, y: int) -> dict:
        e, per_kernel, p, aggregate = self._pending
        self.examples[e] = (self.examples[e][0], float(y))
        K = len(self.kernels)
        rec = {"branch": "skip", "coin": -1, "removed": False, "prob": math.nan, "tie": False}
        d = self.loss.deriv(aggregate, y)
        ad = abs(d)
        if ad > 0.0:
            gamma = math.sqrt(2.0 * math.log(K)) / math.sqrt(1.0 + self.deriv_sum + ad)
            anchor = None
            if self.buffer:
                x = self.examples[e][0]
                sq = [float((self.examples[j][0] - x) @ (self.examples[j][0] - x)) for j in self.buffer]
                j = self.buffer[sq.index(min(sq))]  # the oldest of equally near examples
                dist = max(
                    math.sqrt(max(self.k(i, j, j) + self.k(i, e, e) - 2.0 * self.k(i, j, e), 0.0)) for i in range(K)
                )
                rec["tie"] |= near(dist, gamma)
                if dist <= gamma:
                    anchor = j
            if anchor is not None:
                rec["branch"] = "proxy"
                self.step_all(-self.rate * d, anchor)
            else:
                rec["branch"] = "sampled"
                prob = ad / (ad + self.loss.G1)
                draw = self.rng.random()
                accepted = draw < prob
                rec["tie"] |= near(draw, prob)
                rec["prob"], rec["coin"] = prob, int(accepted)
                if accepted:
                    if len(self.buffer) == self.config.budget:
                        # keep the newest half, or nothing on a restart
                        h = len(self.buffer) // 2 if self.config.removal == "half" else len(self.buffer)
                        for coef in self.coef:
                            for j in self.buffer[:h]:
                                coef.pop(j, None)
                        del self.buffer[:h]
                        for i in range(K):
                            self.project(i)
                        self.removals += 1
                        rec["removed"] = True
                    self.buffer.append(e)
                    self.step_all(-self.rate * d / prob, e)
        # gap to the best: d * (v_i - min v) when d > 0, d * (v_i - max v) when d < 0
        best = min(per_kernel) if d > 0 else max(per_kernel)
        losses = [d * (v - best) if d != 0 else 0.0 for v in per_kernel]
        self.hedge_update(p, losses)
        self.deriv_sum += ad
        rec["losses"] = losses
        return rec
