"""Differential tests: each budgeted learner against its scalar reference.

Streams draw their rows from a small pool, so rows repeat exactly and
proxies, zero gaps and removals all occur; the coordinates are multiples
of 1/4, so inner products and squared distances are exact in both
implementations and exact duplicates stay exact. In every round the label,
branches, coins and removals (and the hinge learner's reservoir decision)
must be identical, and every value must agree to rel 1e-9. The comparison
ends at a round where the reference meets one of its thresholds to within
rounding (its ``tie``), since there either side is correct.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from okselect import (
    HingeKernelSelector,
    HingeSelectorConfig,
    SmoothKernelSelector,
    SmoothSelectorConfig,
    gaussian,
    polynomial,
)

from scalar_reference import ScalarHinge, ScalarSmooth

GRIDS = [
    (gaussian(0.5, 0), gaussian(2.0, 1), polynomial(1, 2)),
    (gaussian(1.0, 0),),
    (polynomial(1, 0),),
    (polynomial(2, 0), gaussian(4.0, 1)),
    (gaussian(0.25, 0), gaussian(1.0, 1), gaussian(4.0, 2), gaussian(16.0, 3)),
]

coordinate = st.sampled_from([q / 4 for q in range(-6, 7)])
row = st.one_of(st.just([0.0, 0.0, 0.0]), st.lists(coordinate, min_size=3, max_size=3))


def close(a, b) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12) or (math.isnan(a) and math.isnan(b))


@settings(max_examples=200, deadline=None)
@given(
    grid=st.sampled_from(GRIDS),
    extra_budget=st.integers(0, 6),
    reservoir_size=st.integers(1, 3),
    removal=st.sampled_from(["half", "restart"]),
    # not 1: a rate of exactly 1 puts many margins at exactly 1, a tie
    lambda_scale=st.sampled_from([0.7, 1.3, 2.1]),
    pool=st.lists(row, min_size=2, max_size=6),
    rounds=st.lists(st.tuples(st.integers(0, 5), st.sampled_from([-1, 1])), min_size=10, max_size=60),
    seed=st.integers(0, 2**16),
)
def test_hinge_learner_matches_scalar_reference(grid, extra_budget, reservoir_size, removal, lambda_scale, pool, rounds, seed):
    config = HingeSelectorConfig(
        kernels=grid, dim=3, budget=4 * len(grid) + extra_budget, horizon=len(rounds),
        reservoir_size=reservoir_size, removal=removal, lambda_scale=lambda_scale, seed=seed,
    )
    learner, ref = HingeKernelSelector(config), ScalarHinge(config)
    pool = np.array(pool)
    for t, (idx, y) in enumerate(rounds):
        x = pool[idx % len(pool)]
        pred, want = learner.predict(x), ref.predict(x)
        assert close(pred.aggregate, want["aggregate"]), t
        assert all(map(close, pred.per_kernel, want["per_kernel"])), t
        if want["tie"]:
            event("ended at a tie")
            return
        assert pred.label == want["label"], t
        rec, expect = learner.update(x, y), ref.update(y)
        if expect["tie"]:
            event("ended at a tie")
            return
        assert rec.branch == expect["branch"], t
        assert rec.coin.tolist() == expect["coin"], t
        assert rec.removed.tolist() == expect["removed"], t
        assert rec.reservoir_accepted == expect["reservoir_accepted"], t
        for field in ("prob", "gap_sq", "losses"):
            assert all(map(close, getattr(rec, field), expect[field])), (t, field)
        for branch in rec.branch:
            event(branch)
        if rec.removed.any():
            event("removal")
        if (rec.prob == 0.0).any():
            event("zero gap")
    assert learner.removals.tolist() == ref.removals


@settings(max_examples=150, deadline=None)
@given(
    grid=st.sampled_from(GRIDS),
    budget=st.sampled_from([2, 4, 6, 8]),
    removal=st.sampled_from(["half", "restart"]),
    lambda_scale=st.sampled_from([0.7, 1.3, 2.1]),
    # an exact duplicate of a buffered row always takes the proxy step, so a
    # buffer fills only with distinct rows: the pool holds 4-10 distinct rows
    pool=st.lists(row, min_size=4, max_size=10, unique_by=tuple),
    rounds=st.lists(st.tuples(st.integers(0, 9), st.sampled_from([-1, 1])), min_size=10, max_size=60),
    seed=st.integers(0, 2**16),
)
def test_smooth_learner_matches_scalar_reference(grid, budget, removal, lambda_scale, pool, rounds, seed):
    config = SmoothSelectorConfig(
        kernels=grid, dim=3, budget=budget, removal=removal, lambda_scale=lambda_scale, seed=seed,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # K > d and a radius above the analysed range are both fine here
        learner = SmoothKernelSelector(config)
    ref = ScalarSmooth(config)
    K = len(grid)
    pool = np.array(pool)
    for t, (idx, y) in enumerate(rounds):
        x = pool[idx % len(pool)]
        pred, want = learner.predict(x), ref.predict(x)
        assert close(pred.aggregate, want["aggregate"]), t
        assert all(map(close, pred.per_kernel, want["per_kernel"])), t
        if want["tie"]:
            event("ended at a tie")
            return
        assert pred.label == want["label"], t
        rec, expect = learner.update(x, y), ref.update(y)
        if expect["tie"]:
            event("ended at a tie")
            return
        assert rec.branch == [expect["branch"]] * K, t
        assert rec.coin.tolist() == [expect["coin"]] * K, t
        assert rec.removed.tolist() == [expect["removed"]] * K, t
        assert all(close(p, expect["prob"]) for p in rec.prob), t
        assert all(map(close, rec.losses, expect["losses"])), t
        event(expect["branch"])
        if expect["removed"]:
            event("removal")
    assert learner.removals == ref.removals
