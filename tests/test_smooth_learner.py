import copy
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okselect import (
    LogisticLoss,
    SmoothKernelSelector,
    SmoothSelectorConfig,
    gaussian,
    polynomial,
    run_stream,
)
from okselect.data import gen_lowerbound
from okselect.kernels import kernel_eval
from okselect.smooth_learner import pea_losses

from conftest import blob_stream

GRID = tuple(gaussian(s, i) for i, s in enumerate((0.25, 1.0, 4.0, 16.0, 64.0)))


def make_learner(**kw):
    """Build a selector with the K>d / aggressive-radius advisories muted;
    they are exercised explicitly in TestConfig."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        base = dict(kernels=GRID, dim=4, budget=40, seed=0)
        base.update(kw)
        return SmoothKernelSelector(SmoothSelectorConfig(**base))


def scalar_value(spec, rows, coefs, x) -> float:
    """Oracle for f(x) = sum_j c_j k(x_j, x), one scalar kernel value at a time."""
    return sum(c * kernel_eval(spec, z, x) for z, c in zip(rows, coefs))


def scalar_sq_norm(spec, rows, coefs) -> float:
    """Oracle for ||f||^2 = sum_j sum_l c_j c_l k(x_j, x_l)."""
    return sum(
        cj * cl * kernel_eval(spec, zj, zl) for zj, cj in zip(rows, coefs) for zl, cl in zip(rows, coefs)
    )


class TestPeaLosses:
    def test_positive_derivative_uses_min_gap(self):
        c = pea_losses(np.array([0.2, -0.1, 0.4]), 0.3)
        assert np.allclose(c, [0.09, 0.0, 0.15])

    def test_negative_derivative_uses_max_gap(self):
        c = pea_losses(np.array([0.2, -0.1, 0.4]), -0.5)
        assert np.allclose(c, [0.1, 0.25, 0.0])

    def test_zero_derivative(self):
        assert np.allclose(pea_losses(np.array([1.0, 2.0]), 0.0), 0.0)

    def test_nonnegative_with_a_zero(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            v = rng.normal(size=5)
            d = rng.normal()
            c = pea_losses(v, d)
            assert c.min() >= -1e-15
            if d != 0:
                assert c.min() == pytest.approx(0.0, abs=1e-15)

    def test_bit_identical_to_the_numpy_reductions(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            v = rng.normal(size=5) * rng.choice([1e-12, 1.0, 1e6])
            d = rng.normal()
            want = d * (v - (v.min() if d > 0 else v.max()))
            assert pea_losses(v, d).tobytes() == want.tobytes()


class TestPredict:
    def test_fresh_learner(self):
        learner = make_learner()
        pred = learner.predict(np.array([1.0, 0.0, 0.0, 0.0]))
        assert np.allclose(pred.per_kernel, 0.0)
        assert pred.label == 1

    def test_single_kernel_mixture_is_identity(self):
        learner = make_learner(kernels=(gaussian(1.0, 0),))
        x = np.array([1.0, 0.0, 0.0, 0.0])
        learner.predict(x)
        learner.update(x, 1)
        pred = learner.predict(np.array([0.5, 0.0, 0.0, 0.0]))
        assert pred.aggregate == pytest.approx(pred.per_kernel[0], rel=1e-12)

    def test_hand_built_state_matches_brute_force(self):
        learner = make_learner(kernels=(gaussian(0.5, 0), gaussian(2.0, 1)))
        store, ex = learner.store, learner.expansions
        slots = [store.add(z, 1, 1.0) for z in ([1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0])]
        ex.coef[:, slots] = [[0.5, -0.25], [0.1, 0.3]]
        x = np.array([0.3, 0.3, 0.1, 0.0])
        pred = learner.predict(x)
        p = learner.hedge.distribution()
        brute = 0.0
        for i, spec in enumerate(learner.kernels):
            fi = scalar_value(spec, store.X[slots], ex.coef[i, slots], x)
            assert pred.per_kernel[i] == pytest.approx(fi, rel=1e-10)
            brute += p[i] * fi
        assert pred.aggregate == pytest.approx(brute, rel=1e-10)


class TestUpdateBranches:
    def test_first_round_probability(self):
        learner = make_learner()
        x = np.array([1.0, 0.0, 0.0, 0.0])
        learner.predict(x)
        rec = learner.update(x, 1)
        # f_t(x) = 0, logistic derivative -1/2, so P = 0.5/(0.5+1) = 1/3
        assert rec.extras["deriv"] == pytest.approx(-0.5)
        assert rec.prob[0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_zero_derivative_skips_everything(self):
        class FlatLoss:
            G1 = 1.0
            G2 = 1.0

            def value(self, u, y):
                return 0.3

            def deriv(self, u, y):
                return 0.0

        learner = make_learner(loss=FlatLoss())
        x = np.array([1.0, 0.0, 0.0, 0.0])
        learner.predict(x)
        rec = learner.update(x, 1)
        assert rec.branch[0] == "skip"
        assert len(learner.store) == 0
        assert np.all(learner.expansions.sq_norms == 0.0)
        assert np.all(learner.expansions.coef == 0.0)
        assert learner.cum_loss == pytest.approx(0.3)
        assert learner.deriv_sum == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_nan_gap_is_not_a_proxy(self, seed):
        # k_2(x, x) = 34.67**200 ~ 9.8e307, so k_jj + k_xx and 2 k_jx both
        # overflow and the polynomial gap is inf - inf = NaN, while the
        # Gaussian gap before it is 0. A NaN gap must fail the proxy test
        # wherever it sits in the vector.
        learner = make_learner(kernels=(gaussian(1.0, 0), polynomial(200.0, 1)), dim=1, budget=4, seed=seed)
        x = np.array([math.sqrt(34.67)])
        with np.errstate(all="ignore"):
            for t in range(3):
                learner.predict(x)
                rec = learner.update(x, 1.0 if t % 2 == 0 else -1.0)
                assert rec.branch[0] != "proxy"

    def test_duplicate_example_triggers_proxy(self):
        # gamma > 0 and an exact duplicate in the buffer has distance 0
        learner = make_learner(seed=12)
        x = np.array([1.0, 0.0, 0.0, 0.0])
        # fill the buffer with x by repeating until a coin lands
        for _ in range(50):
            learner.predict(x)
            learner.update(x, 1)
            if len(learner.store):
                break
        assert len(learner.store), "no acceptance in 50 rounds; reseed the test"
        learner.predict(x)
        rec = learner.update(x, 1)
        assert rec.branch[0] == "proxy"

    def test_proxy_ties_go_to_the_oldest(self):
        # a and b are equally near x = 0; the proxy step must land on the older slot
        learner = make_learner(kernels=(gaussian(0.5, 0), gaussian(1.0, 1)), dim=2, budget=4,
                               ball_radius=1e6, lambda_scale=1e-6, seed=2)  # no projection, rate 0.5
        a, b, x = np.array([0.25, 0.0]), np.array([-0.25, 0.0]), np.zeros(2)
        learner.deriv_sum = 1e12  # gamma ~ 0: every round samples, so a and b are both stored
        for row in (a, b):
            for _ in range(50):
                learner.predict(row)
                learner.update(row, 1)
                if len(learner.store) and np.array_equal(learner.store.X[learner.buffer[-1]], row):
                    break
        older, newer = learner.buffer.tolist()
        assert learner.store.X[older].tolist() == a.tolist() and learner.store.X[newer].tolist() == b.tolist()
        learner.deriv_sum = 0.0  # gamma > 0.8, above both feature distances (0.48 and 0.25)
        before = learner.expansions.coef.copy()
        learner.predict(x)
        rec = learner.update(x, -1)
        assert rec.branch[0] == "proxy"
        changed = np.flatnonzero((learner.expansions.coef != before).any(axis=0))
        assert changed.tolist() == [older]

    def test_full_buffer_removal_keeps_newest_half(self):
        learner = make_learner(budget=4, seed=3)
        rng = np.random.default_rng(31)
        removal_seen = False
        for t in range(400):
            x = rng.normal(size=4)
            y = int(rng.choice([-1, 1]))
            before = learner.store.X[learner.buffer]
            learner.predict(x)
            rec = learner.update(x, y)
            if rec.removed[0]:
                removal_seen = True
                assert len(before) == 4
                assert len(learner.store) == len(learner.buffer) == 4 // 2 + 1
                kept_plus_new = learner.store.X[learner.buffer]  # oldest first
                assert np.array_equal(kept_plus_new[:2], before[2:])  # newest half survives
                assert np.array_equal(kept_plus_new[2], x)
                assert np.all(np.delete(learner.expansions.coef, learner.buffer, axis=1) == 0.0)
            learner.check_invariants()
        assert removal_seen, "removal never fired; adjust seed"


class TestSharedBufferCoherence:
    def test_norm_and_budget_invariants(self):
        X, y = blob_stream(600, 4, seed=33)
        learner = make_learner(budget=8, seed=5)

        def check(rec):
            assert len(learner.store) <= 8
            assert np.all(np.sqrt(learner.expansions.sq_norms) <= learner.radius + 1e-8)
            learner.check_invariants()

        run_stream(learner, X, y, check)

    @settings(max_examples=60, deadline=None)
    @given(
        half_budget=st.integers(1, 4),
        grid=st.sampled_from([
            (gaussian(0.5, 0), gaussian(2.0, 1), gaussian(8.0, 2)),
            (polynomial(1, 0),),
            (polynomial(1, 0), polynomial(2, 1)),
            (gaussian(1.0, 0), polynomial(1, 1)),
        ]),
        removal=st.sampled_from(["half", "restart"]),
        pool=st.lists(
            st.lists(st.floats(-1.5, 1.5, allow_nan=False), min_size=3, max_size=3),
            min_size=2, max_size=6,
        ),
        rounds=st.lists(st.tuples(st.integers(0, 5), st.sampled_from([-1, 1])), min_size=10, max_size=40),
        seed=st.integers(0, 2**16),
    )
    def test_values_and_norms_match_scalar_oracles(self, half_budget, grid, removal, pool, rounds, seed):
        # Rounds draw from a small pool of inputs, so duplicates force proxies.
        learner = make_learner(kernels=grid, dim=3, budget=2 * half_budget, removal=removal, seed=seed)
        store, ex = learner.store, learner.expansions
        pool = np.array(pool)
        for idx, y in rounds:
            x = pool[idx % len(pool)]
            pred = learner.predict(x)
            buf = learner.buffer
            for i, spec in enumerate(grid):
                fi = scalar_value(spec, store.X[buf], ex.coef[i, buf], x)
                assert pred.per_kernel[i] == pytest.approx(fi, rel=1e-9, abs=1e-12)
            learner.update(x, y)
            learner.check_invariants()
            buf = learner.buffer
            assert np.all(np.delete(ex.coef, buf, axis=1) == 0.0)
            for i, spec in enumerate(grid):
                norm_sq = scalar_sq_norm(spec, store.X[buf], ex.coef[i, buf])
                assert ex.sq_norms[i] == pytest.approx(norm_sq, rel=1e-9, abs=1e-12)


class TestSampling:
    def test_unbiased_importance_weight(self):
        rng = np.random.default_rng(34)
        loss = LogisticLoss()
        d = loss.deriv(0.37, -1)
        prob = abs(d) / (abs(d) + loss.G1)
        draws = 100_000
        vals = np.where(rng.random(draws) < prob, d / prob, 0.0)
        se = vals.std(ddof=1) / math.sqrt(draws)
        assert abs(vals.mean() - d) <= 3 * se

    def test_determinism(self):
        X, y = blob_stream(400, 4, seed=35)
        outs = []
        for _ in range(2):
            learner = make_learner(budget=10, seed=9)
            records = []
            run_stream(learner, X, y, records.append)
            coins = [rec.coin[0] for rec in records]
            mistakes = [rec.mistake for rec in records]
            outs.append((coins, mistakes, learner.cum_loss, learner.removals))
        assert outs[0] == outs[1]


class TestConfig:
    def test_odd_budget_floors_with_warning(self):
        with pytest.warns(UserWarning, match="odd"):
            cfg = SmoothSelectorConfig(kernels=(gaussian(1.0, 0),), dim=4, budget=25, seed=0)
        assert cfg.budget == 24

    @pytest.mark.parametrize(
        "field, value",
        [("ball_radius", math.nan), ("ball_radius", -2.0), ("ball_radius", 0.0), ("ball_radius", math.inf),
         ("lambda_scale", math.nan), ("lambda_scale", -1.0), ("lambda_scale", 0.0), ("lambda_scale", math.inf)],
    )
    def test_bad_radius_or_rate_scale_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SmoothSelectorConfig(kernels=GRID, dim=4, budget=40, **{field: value})
        cfg = SmoothSelectorConfig(kernels=GRID, dim=4, budget=40, ball_radius=2.0, lambda_scale=0.5)
        assert cfg.radius == 2.0 and cfg.learning_rate() > 0

    def test_removal_count_scale(self):
        X, y = blob_stream(800, 4, seed=36)
        learner = make_learner(budget=8, seed=10)
        run_stream(learner, X, y)
        assert learner.removals <= 3 * max(learner.removal_bound(delta=0.01), 1)

    def test_restart_mode(self):
        X, y = blob_stream(500, 4, seed=37)
        learner = make_learner(budget=6, seed=11, removal="restart")

        def check(rec):
            if rec.removed[0]:
                assert len(learner.store) == 1  # cleared, then the new example
                assert np.array_equal(learner.store.X[learner.buffer[0]], X[rec.t - 1])
            learner.check_invariants()

        run_stream(learner, X, y, check)

    def test_polynomial_single_kernel(self):
        # K=1 makes gamma 0: proxies fire only on exact duplicates
        learner = make_learner(kernels=(polynomial(1, 0),), dim=6, budget=4, seed=13)
        e = np.eye(6)
        pattern = [0, 1, 2, 0, 1, 2, 0, 1, 2]
        labels = [1, -1, 1, 1, -1, 1, 1, -1, 1]
        branches = []

        def check(rec):
            branches.append(rec.branch[0])
            learner.check_invariants()

        run_stream(learner, e[pattern * 30], np.array(labels * 30), check)
        assert "proxy" in branches


class TestRecords:
    """A round's record arrays equal the ones np.full builds fresh every round,
    though rounds that draw no coin share read-only arrays."""

    @staticmethod
    def stream(name):
        if name == "lowerbound":
            ds = gen_lowerbound(budget=4, rounds=800, seed=3)
            X = ds.dense_features()
            return X, ds.y, make_learner(kernels=(polynomial(1, 0),), dim=X.shape[1], budget=6, seed=21)
        # a mixed K=5 grid over a pool of 40 rows, so that duplicates give proxies
        rng = np.random.default_rng(22)
        pool = np.round(rng.normal(scale=2.0, size=(40, 4)), 1)
        idx = rng.integers(0, len(pool), 800)
        grid = (gaussian(0.5, 0), polynomial(1, 1), gaussian(2.0, 2), polynomial(2, 3), gaussian(8.0, 4))
        return pool[idx], np.where(idx % 2 == 0, 1, -1), make_learner(kernels=grid, dim=4, budget=6, seed=23)

    @pytest.mark.parametrize("name", ["lowerbound", "mixed"])
    def test_records_equal_fresh_arrays(self, name):
        X, y, learner = self.stream(name)
        k = len(learner.kernels)
        coins = np.random.default_rng(np.random.SeedSequence(learner.config.seed))  # the learner's coin stream
        kept, early, seen = [], [], Counter()
        for t in range(len(y)):
            pred = learner.predict(X[t])
            removals = learner.removals
            rec = learner.update(X[t], y[t])
            branch = rec.branch[0]
            assert rec.branch == [branch] * k
            prob, coin = np.nan, -1
            if branch == "sampled":
                d = rec.extras["deriv"]
                prob = abs(d) / (abs(d) + learner.loss.G1)
                coin = int(coins.random() < prob)
            did_remove = learner.removals > removals
            expect = {
                "prob": np.full(k, prob),
                "coin": np.full(k, coin, dtype=int),
                "gap_sq": np.zeros(k),
                "removed": np.full(k, did_remove),
            }
            for field, want in expect.items():
                got = getattr(rec, field)
                assert got.dtype == want.dtype and np.array_equal(got, want, equal_nan=True), (t, field)
            shared = [rec.coin, rec.gap_sq, rec.removed] + ([] if coin >= 0 else [rec.prob])
            for arr in shared:
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 7
            seen[branch] += 1
            seen["accepted"] += coin == 1
            seen["removed"] += did_remove
            kept.append(rec)
            if t < 100:
                early.append(copy.deepcopy(rec))
        assert seen["proxy"] and seen["sampled"] > seen["accepted"] > 0 and seen["removed"], seen
        for before, after in zip(early, kept):
            assert before.branch == after.branch
            for field in ("per_kernel", "losses", "prob", "coin", "gap_sq", "removed"):
                assert np.array_equal(getattr(before, field), getattr(after, field), equal_nan=True)


class TestInputValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            np.array([np.nan, 0.0, 0.0, 0.0]),
            np.array([0.0, np.inf, 0.0, 0.0]),
            np.array([1e200, 0.0, 0.0, 0.0]),
            np.zeros(3),
            np.zeros((4, 1)),
        ],
    )
    def test_bad_input_rejected_before_any_state_changes(self, bad):
        X, y = blob_stream(60, 4, seed=38)
        learner, untouched = make_learner(budget=6, seed=14), make_learner(budget=6, seed=14)
        for lr in (learner, untouched):
            run_stream(lr, X[:40], y[:40])
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            learner.predict(bad)
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            learner.update(bad, 1)
        assert learner.t == untouched.t
        assert learner.rng.bit_generator.state == untouched.rng.bit_generator.state
        assert len(learner.store) == len(untouched.store)
        assert np.array_equal(learner.buffer, untouched.buffer)
        for name in ("X", "sqnorm", "label", "refs", "live"):
            assert np.array_equal(getattr(learner.store, name), getattr(untouched.store, name))
        for name in ("coef", "sq_norms"):
            assert np.array_equal(getattr(learner.expansions, name), getattr(untouched.expansions, name))
        for t in range(40, 60):
            recs = [lr.update(X[t], y[t]) for lr in (learner, untouched)]
            assert recs[0].aggregate == recs[1].aggregate and recs[0].coin[0] == recs[1].coin[0]
