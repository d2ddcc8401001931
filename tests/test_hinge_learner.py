import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okselect import (
    BudgetError,
    HingeKernelSelector,
    HingeSelectorConfig,
    allocate_budgets,
    gaussian,
    polynomial,
    run_stream,
)
from okselect.hinge_learner import _surrogate_weights
from okselect.kernels import kernel_eval

from conftest import (
    assert_refcounts_conserved,
    blob_stream,
    brute_guess_sq_norm,
    brute_norm_sq,
    brute_value,
    coeffs,
    guess_coeffs,
    offer,
    state_digest,
)
from scalar_reference import importance_weighted_coeffs

GRID = tuple(gaussian(s, i) for i, s in enumerate((0.25, 1.0, 4.0, 16.0, 64.0)))


def make_config(**kw):
    base = dict(kernels=GRID, dim=4, budget=60, horizon=2000, seed=0)
    base.update(kw)
    return HingeSelectorConfig(**base)


class TestBudgetAllocation:
    def test_benchmark_shapes(self):
        # T=8124: ceil(ln 8124) = 10 since e^9 ~ 8103 < 8124
        cfg = make_config(budget=400, horizon=8124, reservoir_size=10)
        archive, per_kernel = allocate_budgets(cfg)
        assert archive == 110
        assert per_kernel == 58

    def test_small_budget_caps_archive(self):
        cfg = make_config(budget=100, horizon=8124, reservoir_size=10)
        archive, per_kernel = allocate_budgets(cfg)
        assert archive == 50  # floor(B/2) cap active
        assert per_kernel == 10

    def test_boundary_budget(self):
        # smallest legal budget: one even slot pair per kernel plus archive
        cfg = make_config(budget=2 * 5 + 2, horizon=2, reservoir_size=1)
        archive, per_kernel = allocate_budgets(cfg)
        assert archive == 2
        assert per_kernel == 2
        with pytest.raises(BudgetError):
            make_config(budget=2 * 5 + 1)
        # a huge reservoir slice starves the per-kernel buffers: error path
        with pytest.raises(BudgetError):
            allocate_budgets(make_config(budget=2 * 5 + 2, horizon=10**6, reservoir_size=100))

    def test_unsplittable_budget_is_rejected_by_the_config(self):
        # B = 2K + 2, but the archive slice min(100 * 15, B // 2) = 6 leaves 6 < 2K slots for the buffers
        with pytest.raises(BudgetError, match="per-kernel buffers"):
            HingeSelectorConfig(kernels=GRID, dim=4, budget=12, horizon=10**6, reservoir_size=100)

    def test_per_kernel_budget_is_even(self):
        for budget in (30, 44, 61, 87, 123):
            try:
                cfg = make_config(budget=budget, horizon=500)
            except BudgetError:
                continue
            _, per_kernel = allocate_budgets(cfg)
            assert per_kernel % 2 == 0 and per_kernel >= 2


class TestPredict:
    def test_fresh_learner_predicts_zero_and_plus_one(self):
        learner = HingeKernelSelector(make_config())
        pred = learner.predict(np.array([0.5, -0.5, 0.1, 0.0]))
        assert np.allclose(pred.per_kernel, 0.0)
        assert pred.aggregate == 0.0
        assert pred.label == 1  # sign(0) = +1

    def test_single_reservoir_entry_shifts_prediction(self):
        learner = HingeKernelSelector(make_config())
        x1 = np.array([1.0, 0.0, 0.0, 0.0])
        offer(learner.reservoir, x1, 1)  # t=1: accepted with probability 1
        x = np.array([0.2, 0.1, 0.0, 0.0])
        pred = learner.predict(x)
        for i, spec in enumerate(GRID):
            expect = learner.rate * kernel_eval(spec, x1, x)
            assert pred.per_kernel[i] == pytest.approx(expect, rel=1e-10)

    def test_concentrated_mixture(self):
        learner = HingeKernelSelector(make_config())
        # force the Hedge mass onto kernel 2
        for _ in range(20):
            learner.hedge.update([50.0, 50.0, 0.0, 50.0, 50.0])
        offer(learner.reservoir, np.array([1.0, 1.0, 0.0, 0.0]), -1)
        x = np.array([0.5, 0.5, 0.0, 0.0])
        pred = learner.predict(x)
        assert pred.weights[2] > 0.999
        assert pred.aggregate == pytest.approx(pred.per_kernel[2], abs=1e-2 * abs(pred.per_kernel[2]) + 1e-12)


class TestFirstRound:
    def test_forced_acceptance_step(self):
        learner = HingeKernelSelector(make_config())
        x = np.array([1.0, 0.0, 0.0, 0.0])
        learner.predict(x)
        rec = learner.update(x, 1)
        # empty guess: P = 1 and the step is a plain projected gradient step
        assert np.allclose(rec.prob, 1.0)
        assert np.all(rec.coin == 1)
        ex = learner.expansions
        for i, buf in enumerate(learner.buffers):
            assert len(buf) == 1
            expect = min(1.0, learner.radius / learner.rate) * learner.rate * 1.0
            assert ex.coef[i, buf[0]] == pytest.approx(expect, rel=1e-12)

    def test_first_round_gap_is_kernel_diagonal(self):
        learner = HingeKernelSelector(make_config())
        x = np.array([0.3, 0.3, 0.0, 0.0])
        learner.predict(x)
        rec = learner.update(x, -1)
        assert np.allclose(rec.gap_sq, 1.0)  # k(x,x) = 1, guess = 0
        assert np.allclose(learner.gap_sums, 1.0)


class TestSamplingProbability:
    def test_half_probability_when_gap_equals_guess_norm(self):
        # one reservoir entry (x0, +1) at feature distance with k(x0,x)=1/2
        # makes ||grad - guess||^2 = ||guess||^2 for the sigma=1 kernel
        learner = HingeKernelSelector(make_config())
        x0 = np.zeros(4)
        offer(learner.reservoir, x0, 1)
        x = np.array([math.sqrt(2.0 * math.log(2.0)), 0.0, 0.0, 0.0])
        learner.predict(x)
        rec = learner.update(x, 1)
        i = 1  # sigma = 1
        assert rec.branch[i] == "sampled"
        assert rec.prob[i] == pytest.approx(0.5, abs=1e-12)

    def test_gap_scalar_matches_brute_force(self):
        # ||grad - guess||^2 assembled from scalars must equal the norm of
        # the explicit coefficient expansion of (grad - guess)
        learner = HingeKernelSelector(make_config(seed=5))
        rng = np.random.default_rng(50)
        for t in range(6):
            offer(learner.reservoir, rng.normal(size=4), int(rng.choice([-1, 1])))
        x = rng.normal(size=4)
        y = 1
        # snapshot the guess sample before update() observes the round's example
        store = learner.store
        snapshot = [
            (store.X[s].copy(), store.label[s]) for s in learner.reservoir.sample
        ]
        learner.predict(x)
        rec = learner.update(x, y)
        for i, spec in enumerate(GRID):
            if rec.gap_sq[i] == 0.0 and rec.branch[i] == "skip":
                continue
            m = len(snapshot)
            anchors = [(x, -float(y))] + [(xs, lab / m) for xs, lab in snapshot]
            brute = 0.0
            for xa, ca in anchors:
                for xb, cb in anchors:
                    brute += ca * cb * kernel_eval(spec, xa, xb)
            assert rec.gap_sq[i] == pytest.approx(brute, rel=1e-8, abs=1e-10)


class TestSurrogateGradient:
    def test_unbiasedness_monte_carlo(self):
        rng = np.random.default_rng(21)
        grad = {100: -1.0}
        guess = {1: -0.25, 2: 0.25, 3: -0.5}
        gap_sq = 1.7
        guess_sq = 0.9
        prob = gap_sq / (gap_sq + guess_sq)
        draws = 100_000
        keys = [100, 1, 2, 3]
        acc = {k: np.zeros(draws) for k in keys}
        for n in range(draws):
            coeffs = importance_weighted_coeffs(grad, guess, prob, rng.random() < prob)
            for k in keys:
                acc[k][n] = coeffs.get(k, 0.0)
        for k in keys:
            mean = acc[k].mean()
            se = acc[k].std(ddof=1) / math.sqrt(draws)
            target = grad.get(k, 0.0)
            assert abs(mean - target) <= 3 * se + 1e-12

    def test_acceptance_recovers_importance_weight(self):
        coeffs = importance_weighted_coeffs({7: -1.0}, {3: -0.5}, 0.25, True)
        assert coeffs[7] == pytest.approx(-4.0)
        assert coeffs[3] == pytest.approx(-0.5 * (1.0 - 4.0))
        coeffs0 = importance_weighted_coeffs({7: -1.0}, {3: -0.5}, 0.25, False)
        assert coeffs0 == {3: -0.5}

    @pytest.mark.parametrize("guess", [{3: -0.25, 8: 0.25, 5: -0.25, 1: 0.25}, {}], ids=["sample", "empty sample"])
    @pytest.mark.parametrize("y", [-1.0, 1.0])
    def test_array_form_matches_dict_reference(self, guess, y):
        # accepted, rejected, p = 1, a zero gap (no coin), accepted at a small p
        cases = [(0.3, True), (0.3, False), (1.0, True), (0.0, False), (0.02, True)]
        x_slot = 100  # the round's example, never in the sample
        for i, (prob, accepted) in enumerate(cases):
            gamma, delta = _surrogate_weights(y, prob, accepted)
            want = importance_weighted_coeffs({x_slot: -y} if accepted else {}, guess, prob, accepted)
            got = {s: gamma * c for s, c in guess.items()} | {x_slot: delta}
            scale = 1.0 / prob if accepted else 1.0
            for s, c in got.items():
                if s not in want:
                    assert c == 0.0, (i, s)  # dropped exactly where the closed form is exactly zero
                else:
                    assert c == pytest.approx(want[s], rel=0, abs=4e-16 * scale), (i, s)


class TestFullRuns:
    def checked_records(self, learner, X, y, check_every=1):
        """The stream's records, with the invariants checked every ``check_every`` rounds and at the end."""
        records = []

        def check(rec):
            records.append(rec)
            if (rec.t - 1) % check_every == 0:
                learner.check_invariants()

        run_stream(learner, X, y, check)
        learner.check_invariants()
        return records

    def test_budget_and_norm_invariants_hold_every_round(self):
        X, y = blob_stream(600, 4, seed=22)
        learner = HingeKernelSelector(make_config(seed=1, horizon=600))
        records = self.checked_records(learner, X, y)
        # a removal fires only on an accepted coin
        assert any(rec.removed.any() for rec in records), "no removal was exercised; change the seed"
        for rec in records:
            assert np.all(rec.coin[rec.removed] == 1), rec.t
        assert_refcounts_conserved(
            learner.store,
            buffers=[*learner.buffers, learner.reservoir.archive],
        )

    def test_removal_leaves_half_plus_one(self):
        X, y = blob_stream(600, 4, seed=23)
        learner = HingeKernelSelector(make_config(seed=2, horizon=600))
        sizes_after_removal = []

        def removal_sizes(rec):
            sizes_after_removal.extend(len(learner.buffers[i]) for i in np.flatnonzero(rec.removed))

        run_stream(learner, X, y, removal_sizes)
        assert sizes_after_removal, "no removal was exercised; change the seed"
        assert set(sizes_after_removal) == {learner.per_kernel_cap // 2 + 1}

    def test_determinism(self):
        X, y = blob_stream(400, 4, seed=24)
        runs = []
        for _ in range(2):
            learner = HingeKernelSelector(make_config(seed=7, horizon=400))
            recs = self.checked_records(learner, X, y, check_every=100)
            runs.append(
                (
                    [r.mistake for r in recs],
                    np.vstack([r.prob for r in recs]),
                    np.vstack([r.coin for r in recs]),
                    learner.gap_sums.copy(),
                    learner.removals.copy(),
                )
            )
        assert runs[0][0] == runs[1][0]
        assert np.array_equal(runs[0][1], runs[1][1], equal_nan=True)
        assert np.array_equal(runs[0][2], runs[1][2])
        assert np.array_equal(runs[0][3], runs[1][3])
        assert np.array_equal(runs[0][4], runs[1][4])

    def test_alignment_accumulator_matches_records(self):
        X, y = blob_stream(300, 4, seed=25)
        learner = HingeKernelSelector(make_config(seed=3, horizon=300))
        records = self.checked_records(learner, X, y, check_every=50)
        total = np.zeros(len(GRID))
        for rec in records:
            total += rec.gap_sq
        assert np.allclose(learner.gap_sums, total, rtol=1e-10)

    def test_removal_count_against_expected_scale(self):
        X, y = blob_stream(800, 4, seed=26)
        learner = HingeKernelSelector(make_config(seed=4, horizon=800))
        self.checked_records(learner, X, y, check_every=100)
        bound = learner.removal_bounds()
        assert np.all(learner.removals <= 3 * bound)

    def test_restart_mode(self):
        X, y = blob_stream(500, 4, seed=27)
        learner = HingeKernelSelector(make_config(seed=5, horizon=500, removal="restart"))
        self.checked_records(learner, X, y, check_every=50)
        assert learner.removals.sum() > 0

    def test_retained_grams_are_bounded(self):
        # one removal record per kernel, each Gram of side at most the archive and half a buffer
        X, y = blob_stream(800, 4, seed=26)
        learner = HingeKernelSelector(make_config(seed=4, horizon=800))
        run_stream(learner, X, y)
        side = learner.archive_cap + learner.per_kernel_cap // 2
        grams = [record[1] for record in learner._gram_records if record]
        assert grams and all(g.shape[0] == 1 and g.shape[1] <= side for g in grams)
        learner.check_invariants()
        key = learner._gram_records[0][0] if learner._gram_records[0] else ()
        learner._gram_records[0] = (key, np.zeros((1, side + 1, side + 1)))
        with pytest.raises(AssertionError, match="retained Gram"):
            learner.check_invariants()

    def test_restart_drops_the_archive_anchors_mass(self):
        # a restart zeroes the kernel's whole row before it steps, so the mass on
        # archive slots outside the round's guess sample goes, not only the buffer's
        X, y = blob_stream(500, 4, seed=27)
        learner = HingeKernelSelector(make_config(seed=5, horizon=500, removal="restart"))
        ex, res = learner.expansions, learner.reservoir
        restarts_with_anchor_mass = 0
        for t in range(len(y)):
            learner.predict(X[t])
            outside = sorted(set(res.archive) - set(res.sample.tolist()))
            before = ex.coef[:, outside].copy()
            rec = learner.update(X[t], y[t])
            for i in np.flatnonzero(rec.removed):
                restarts_with_anchor_mass += bool(before[i].any())
                assert not ex.coef[i, outside].any(), (t, i)
        assert restarts_with_anchor_mass > 0

    def test_proxy_branch_fires_and_keeps_buffer(self):
        X, y = blob_stream(800, 3, seed=28, noise=0.3)
        learner = HingeKernelSelector(
            HingeSelectorConfig(kernels=GRID, dim=3, budget=60, horizon=800, seed=6)
        )
        proxies = 0
        for t in range(len(y)):
            learner.predict(X[t])
            before = [len(buf) for buf in learner.buffers]
            rec = learner.update(X[t], y[t])
            for i in range(len(GRID)):
                if rec.branch[i] == "proxy":
                    proxies += 1
                    assert len(learner.buffers[i]) == before[i]
        assert proxies > 0


    def test_proxy_ties_go_to_the_earliest_insertion(self):
        # a and b are equally near x = 0; the proxy step must land on the older slot
        learner = HingeKernelSelector(HingeSelectorConfig(
            kernels=(gaussian(0.5, 0),), dim=2, budget=20, horizon=100, reservoir_size=2,
            ball_radius=1e6, lambda_scale=1e-6, seed=3,  # no projection, rate 0.22
        ))
        a, b, x = np.array([0.25, 0.0]), np.array([-0.25, 0.0]), np.zeros(2)
        learner.gap_sums[:] = 1e12  # gamma ~ 0: every violated round samples, so a and b are both stored
        for size, row in ((1, a), (2, b)):
            for _ in range(50):
                learner.predict(row)
                learner.update(row, 1)
                if len(learner.buffers[0]) == size:
                    break
        older, newer = learner.buffers[0].tolist()
        assert learner.store.X[older].tolist() == a.tolist() and learner.store.X[newer].tolist() == b.tolist()
        learner.gap_sums[:] = 0.0  # gamma = gap / sqrt(1 + gap), above the feature distance 0.48
        before = learner.expansions.coef.copy()
        learner.predict(x)
        rec = learner.update(x, -1)
        assert rec.branch == ["proxy"]
        assert np.flatnonzero(learner.expansions.coef[0] != before[0]).tolist() == [older]


class TestCoefficientMatrix:
    @settings(max_examples=60, deadline=None)
    @given(
        grid=st.sampled_from([
            (gaussian(0.5, 0), gaussian(2.0, 1), gaussian(8.0, 2)),
            (gaussian(1.0, 0),),
            (polynomial(1, 0),),
            (gaussian(1.0, 0), polynomial(1, 1)),
        ]),
        extra_budget=st.integers(0, 6),
        reservoir_size=st.integers(1, 3),
        removal=st.sampled_from(["half", "restart"]),
        pool=st.lists(
            st.lists(st.floats(-1.5, 1.5, allow_nan=False), min_size=3, max_size=3),
            min_size=2, max_size=6,
        ),
        rounds=st.lists(st.tuples(st.integers(0, 5), st.sampled_from([-1, 1])), min_size=10, max_size=40),
        seed=st.integers(0, 2**16),
    )
    def test_values_and_norms_match_scalar_oracles(self, grid, extra_budget, reservoir_size, removal, pool, rounds, seed):
        # Rounds draw from a small pool of inputs, so duplicates force proxies,
        # and small budgets force half-removals or restarts.
        learner = HingeKernelSelector(HingeSelectorConfig(
            kernels=grid, dim=3, budget=4 * len(grid) + extra_budget, horizon=len(rounds),
            reservoir_size=reservoir_size, removal=removal, seed=seed,
        ))
        store, ex, res = learner.store, learner.expansions, learner.reservoir
        added = []  # the slot of each round's example, as the store hands it out
        store_add = store.add
        store.add = lambda *args: added.append(store_add(*args)) or added[-1]
        insertions = [[] for _ in grid]  # each buffer rebuilt from the round records, oldest first
        pool = np.array(pool)
        for idx, y in rounds:
            x = pool[idx % len(pool)]
            pred = learner.predict(x)
            guesses = pred.cache[2]  # the guess values at x, kept for update
            guess = guess_coeffs(res)
            for i, spec in enumerate(grid):
                g = brute_value(spec, store, guess, x)
                assert guesses[i] == pytest.approx(g, rel=1e-9, abs=1e-12)
                fi = brute_value(spec, store, coeffs(ex, i), x)
                assert pred.per_kernel[i] == pytest.approx(fi - learner.rate * g, rel=1e-9, abs=1e-12)
            rec = learner.update(x, y)
            learner.check_invariants()
            archive = set(res.archive)
            assert not ex.coef[:, store.refs == 0].any()
            for i, spec in enumerate(grid):
                assert set(np.flatnonzero(ex.coef[i]).tolist()) <= archive | set(learner.buffers[i])
                assert ex.sq_norms[i] == pytest.approx(brute_norm_sq(spec, store, coeffs(ex, i)), rel=1e-9, abs=1e-12)
                assert res.optimistic_sq_norms()[i] == pytest.approx(brute_guess_sq_norm(res, spec), rel=1e-9, abs=1e-12)
                # the reservoir's label sums at every live slot
                for s in np.flatnonzero(store.refs):
                    want = sum(store.label[j] * kernel_eval(spec, store.X[j], store.X[s]) for j in res.sample)
                    assert res.label_sums[i, s] == pytest.approx(want, rel=1e-9, abs=1e-12)
                # the buffer's slots in insertion order: half-removal keeps the oldest half
                if rec.removed[i]:
                    del insertions[i][len(insertions[i]) // 2 if removal == "half" else 0 :]
                if rec.coin[i] == 1:
                    insertions[i].append(added[-1])
                assert learner.buffers[i].tolist() == insertions[i]

    def test_default_kernel_indices_change_nothing(self):
        # gaussian() defaults to index 0; each kernel must still get its own guess-norm cache
        X, y = blob_stream(120, 3, seed=30)
        runs = []
        for grid in ((gaussian(0.5), gaussian(4.0)), (gaussian(0.5, 0), gaussian(4.0, 1))):
            learner = HingeKernelSelector(HingeSelectorConfig(kernels=grid, dim=3, budget=20, horizon=120, seed=8))
            recs = []
            run_stream(learner, X, y, recs.append)
            runs.append(recs)
        for a, b in zip(*runs):
            assert (a.label, a.aggregate, a.branch, a.reservoir_accepted) == (b.label, b.aggregate, b.branch, b.reservoir_accepted)
            for field in ("per_kernel", "losses", "prob", "coin", "gap_sq", "removed"):
                assert np.array_equal(getattr(a, field), getattr(b, field), equal_nan=True)


class TestInputValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            np.array([np.nan, 0.0, 0.0, 0.0]),
            np.array([0.0, -np.inf, 0.0, 0.0]),
            np.array([1e200, 0.0, 0.0, 0.0]),
            np.zeros(5),
            np.zeros((4, 1)),
        ],
    )
    def test_bad_input_rejected_before_any_state_changes(self, bad):
        X, y = blob_stream(60, 4, seed=29)
        learner, untouched = (HingeKernelSelector(make_config(seed=7, horizon=60)) for _ in range(2))
        for lr in (learner, untouched):
            run_stream(lr, X[:40], y[:40])
        with pytest.raises(ValueError):
            learner.predict(bad)
        with pytest.raises(ValueError):
            learner.update(bad, 1)
        assert learner.t == untouched.t
        assert state_digest(learner) == state_digest(untouched)
        for t in range(40, 60):
            recs = [lr.update(X[t], y[t]) for lr in (learner, untouched)]
            assert recs[0].aggregate == recs[1].aggregate
            assert np.array_equal(recs[0].coin, recs[1].coin)

    def test_loss_rejected_by_hedge_changes_no_state(self):
        # k_2(x, x) = 34.67^200 ~ 9.8e307: after one round the reservoir's guess puts the
        # polynomial kernel's value near 9.8e307, a loss far above the ~9.48e153 Hedge accepts
        def build():
            return HingeKernelSelector(HingeSelectorConfig(
                kernels=(gaussian(1.0, 0), polynomial(200.0, 1)), dim=1, budget=12, horizon=20,
                reservoir_size=1, seed=0,
            ))

        x = np.array([math.sqrt(34.67)])
        learner, untouched = build(), build()
        for lr in (learner, untouched):
            lr.update(x, 1)
        with pytest.raises(ValueError, match="losses must be finite"):
            learner.update(x, -1)
        assert state_digest(learner) == state_digest(untouched)
        learner.check_invariants()
        assert learner.t == untouched.t + 1  # the rejected round still counts

    @pytest.mark.parametrize(
        "field, value",
        [("ball_radius", math.nan), ("ball_radius", -2.0), ("ball_radius", 0.0), ("ball_radius", math.inf),
         ("lambda_scale", math.nan), ("lambda_scale", -1.0), ("lambda_scale", 0.0), ("lambda_scale", math.inf)],
    )
    def test_bad_radius_or_rate_scale_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            make_config(**{field: value})
        cfg = make_config(ball_radius=2.0, lambda_scale=0.5)
        assert cfg.radius == 2.0 and cfg.learning_rate() > 0
