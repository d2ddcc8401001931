import math

import numpy as np
import pytest

from okselect import ExampleStore, Reservoir
from okselect.kernels import gaussian, kernel_eval, kernel_rows, pairwise

from conftest import brute_guess_sq_norm, brute_value, guess_coeffs, offer

BIG_CAP = 10**9  # effectively uncapped archive for sampling-law tests
STORE_CAP = 1024  # store slots: room for an uncapped archive over these streams


def make_reservoir(capacity=10, archive_cap=BIG_CAP, seed=0, specs=(), dim=2):
    store = ExampleStore(dim=dim, capacity=STORE_CAP)
    rng = np.random.default_rng(seed)
    return store, Reservoir(store, capacity, archive_cap, rng, specs=specs)


def guess(r, spec, x):
    """The reservoir's guess value at x, from kernel rows over the whole store."""
    x = np.asarray(x, dtype=float)
    st = r.store
    return r.optimistic_value_many(kernel_rows((spec,), *pairwise(st.X, st.sqnorm, x, float(x @ x))))[0]


def test_always_inserts_until_full():
    store, r = make_reservoir(capacity=5, seed=1)
    for t in range(5):
        assert offer(r, [float(t), 0.0], 1) is True
    assert len(r) == 5
    assert r.archive == r.sample.tolist()


def test_acceptance_rate_at_twice_capacity():
    # at t = 2M the insertion probability is exactly 1/2
    M = 10
    hits = 0
    trials = 10_000
    store = ExampleStore(dim=1)
    rng = np.random.default_rng(2)
    for _ in range(trials):
        r = Reservoir(store, M, BIG_CAP, rng)
        for t in range(2 * M - 1):
            offer(r, [float(t)], 1)
        if offer(r, [99.0], 1):
            hits += 1
        for eid in list(r.sample):
            pass
        # release references so the shared store stays small
        for eid in r.archive:
            store.decref(eid)
        for eid in r.sample:
            store.decref(eid)
    assert abs(hits / trials - 0.5) <= 0.02


def test_sample_never_exceeds_capacity_and_archive_superset():
    store, r = make_reservoir(capacity=7, seed=3, dim=1)
    seen_samples = []
    for t in range(100_000):
        offer(r, [float(t % 50)], 1 if t % 2 else -1)
        assert len(r) <= 7
        if t % 5000 == 0:
            seen_samples.append(list(r.sample))
    archive = set(r.archive)
    for snap in seen_samples:
        assert set(snap) <= archive


def test_expected_archive_growth():
    # E[|archive|] <= M (1 + ln T); check the empirical mean over 200 runs
    M, T, runs = 10, 10_000, 200
    sizes = []
    store = ExampleStore(dim=1, capacity=STORE_CAP)
    rng = np.random.default_rng(4)
    x, x_sqnorm = np.zeros(1), 0.0  # built once for the 2 * 10^6 offers
    for _ in range(runs):
        r = Reservoir(store, M, BIG_CAP, rng)
        for t in range(T):
            offer(r, x, 1, x_sqnorm)
        sizes.append(len(r.archive))
        for eid in r.archive:
            store.decref(eid)
        for eid in r.sample:
            store.decref(eid)
    mean = float(np.mean(sizes))
    se = float(np.std(sizes, ddof=1)) / math.sqrt(runs)
    assert mean <= M * (1 + math.log(T)) + 3 * se


def test_freeze_at_archive_cap():
    store, r = make_reservoir(capacity=3, archive_cap=4, seed=5, dim=1)
    for t in range(100):
        offer(r, [float(t)], 1)
    assert r.frozen
    assert len(r.archive) == 4
    assert r.seen == 100  # the round counter keeps going


def test_optimistic_value_empty_and_single():
    spec = gaussian(1.0)
    store, r = make_reservoir(capacity=4, seed=6, specs=(spec,))
    x = np.array([0.5, 0.5])
    assert guess(r, spec, x) == 0.0
    assert r.optimistic_sq_norms()[0] == 0.0
    offer(r, [1.0, 0.0], 1)  # t=1: inserted with probability 1
    expect = -kernel_eval(spec, np.array([1.0, 0.0]), x)
    assert guess(r, spec, x) == pytest.approx(expect, abs=1e-12)
    assert r.optimistic_sq_norms()[0] == pytest.approx(1.0, abs=1e-12)
    assert len(r) == 1 and store.label[r.sample[0]] == 1.0


def test_optimistic_value_cancellation():
    spec = gaussian(1.0)
    store, r = make_reservoir(capacity=4, seed=7, specs=(spec,))
    offer(r, [1.0, 0.0], 1)
    offer(r, [1.0, 0.0], -1)
    assert guess(r, spec, [0.3, 0.4]) == pytest.approx(0.0, abs=1e-12)
    assert r.optimistic_sq_norms()[0] == pytest.approx(0.0, abs=1e-12)


def test_sq_norm_cache_tracks_brute_force_under_swaps():
    # default indices (both 0): each kernel still needs its own cache
    specs = (gaussian(0.5), gaussian(2.0))
    store, r = make_reservoir(capacity=10, seed=8, specs=specs, dim=3)
    rng = np.random.default_rng(80)
    for t in range(400):
        offer(r, rng.normal(size=3), int(rng.choice([-1, 1])))
        if t % 20 == 0:
            for i, spec in enumerate(specs):
                assert r.optimistic_sq_norms()[i] == pytest.approx(
                    brute_guess_sq_norm(r, spec), rel=1e-8, abs=1e-10
                )
    for i, spec in enumerate(specs):
        assert r.optimistic_sq_norms()[i] == pytest.approx(
            brute_guess_sq_norm(r, spec), rel=1e-8, abs=1e-10
        )


def test_optimistic_coeffs_values():
    # the guess is -(1/|V|) sum_{j in V} y_j k(x_j, .): coefficient -y_j / 5 on each of 5 samples
    spec = gaussian(1.5)
    store, r = make_reservoir(capacity=5, seed=9, dim=1, specs=(spec,))
    for t in range(5):
        offer(r, [float(t)], 1 if t % 2 == 0 else -1)
    assert len(r) == 5
    for x in ([-1.0], [0.5], [2.0], [4.5]):
        want = brute_value(spec, store, guess_coeffs(r), np.array(x))
        assert guess(r, spec, x) == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_refcounts_cover_sample_and_archive():
    store, r = make_reservoir(capacity=3, seed=10, dim=1)
    for t in range(50):
        offer(r, [float(t)], 1)
    for slot in r.archive:
        expected = 1 + r.sample.tolist().count(slot)
        assert store.refs[slot] == expected
