import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okselect import BudgetedFunction, ExampleStore, Reservoir
from okselect.kernels import gaussian, kernel_eval, polynomial

from conftest import assert_refcounts_conserved, brute_norm_sq, brute_value, random_function, scan_refcounts


class TestExampleStore:
    def test_freed_slot_is_reused_and_full_store_raises(self):
        s = ExampleStore(dim=2, capacity=2)
        a = s.add([1.0, 0.0], 1)
        s.incref(a)
        b = s.add([0.0, 1.0], -1)
        s.incref(b)
        with pytest.raises(RuntimeError):
            s.add([2.0, 2.0], 1)  # the store never grows
        s.decref(a)  # slot freed
        assert not s.live[a]
        c = s.add([2.0, 2.0], 1)
        assert c == a and len(s) == 2
        assert np.array_equal(s.X[c], [2.0, 2.0]) and np.array_equal(s.X[b], [0.0, 1.0])

    def test_slot_recycling_bounds_memory(self):
        s = ExampleStore(dim=1, capacity=4)
        for i in range(100):
            e = s.add([float(i)], 1)
            s.incref(e)
            s.decref(e)
        assert len(s) == 0
        assert s.X.shape[0] == 4  # never grew

    def test_negative_refcount_rejected(self):
        s = ExampleStore(dim=1)
        e = s.add([1.0], 1)
        s.incref(e)
        s.decref(e)
        with pytest.raises(KeyError):
            s.decref(e)  # already reclaimed

    def test_batch_rows(self):
        s = ExampleStore(dim=2)
        ids = [s.add([float(i), -float(i)], (-1) ** i) for i in range(5)]
        for e in ids:
            s.incref(e)
        X, sq, lab = s.rows(ids[1:4])
        assert np.allclose(X[:, 0], [1.0, 2.0, 3.0])
        assert np.allclose(sq, [2.0, 8.0, 18.0])
        assert np.allclose(lab, [-1.0, 1.0, -1.0])


class TestEvaluate:
    def test_empty_function_is_zero(self):
        s = ExampleStore(dim=2)
        f = BudgetedFunction(gaussian(1.0), s)
        assert f.value(np.array([1.0, 2.0])) == 0.0
        assert f.squared_norm() == 0.0

    def test_single_atom_at_itself(self):
        s = ExampleStore(dim=2)
        f = BudgetedFunction(gaussian(1.0), s)
        e = s.add([0.3, -0.7], 1)
        f.add_scaled(1.0, e)
        assert f.value(np.array([0.3, -0.7])) == pytest.approx(1.0, abs=1e-12)

    def test_against_brute_force(self):
        rng = np.random.default_rng(3)
        s = ExampleStore(dim=3)
        spec = gaussian(0.9)
        f = random_function(spec, s, 20, rng)
        for _ in range(20):
            x = rng.normal(size=3)
            assert f.value(x) == pytest.approx(brute_value(spec, s, f.coeffs, x), rel=1e-10, abs=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(4)
        s = ExampleStore(dim=3)
        spec = gaussian(1.5)
        f = random_function(spec, s, 10, rng)
        for _ in range(50):
            z = rng.normal(size=3)
            before = f.value(z)
            c = rng.normal()
            anchor = rng.choice(f.own_buffer)
            expected = before + c * kernel_eval(spec, s.X[anchor], z)
            f.add_scaled(c, anchor)
            assert f.value(z) == pytest.approx(expected, rel=1e-9, abs=1e-10)


class TestNormTracking:
    def test_single_atom_norm(self):
        s = ExampleStore(dim=2)
        f = BudgetedFunction(gaussian(1.0), s)
        e = s.add([1.0, 1.0], 1)
        f.add_scaled(1.0, e)
        assert f.squared_norm() == pytest.approx(1.0, abs=1e-12)
        f2 = BudgetedFunction(gaussian(1.0), s)
        f2.add_scaled(-0.5, e)
        assert f2.squared_norm() == pytest.approx(0.25, abs=1e-12)

    def test_add_then_subtract_returns_to_start(self):
        rng = np.random.default_rng(5)
        s = ExampleStore(dim=3)
        f = random_function(gaussian(1.0), s, 8, rng)
        start = f.squared_norm()
        e = f.own_buffer[0]
        f.add_scaled(0.7, e)
        f.add_scaled(-0.7, e)
        assert f.squared_norm() == pytest.approx(start, abs=1e-10)

    @pytest.mark.parametrize("spec", [gaussian(0.8), polynomial(2)])
    def test_incremental_matches_gram(self, spec):
        rng = np.random.default_rng(6)
        s = ExampleStore(dim=3)
        f = random_function(spec, s, 20, rng)
        for _ in range(30):
            f.add_scaled(rng.normal(), rng.choice(f.own_buffer))
            oracle = brute_norm_sq(spec, s, f.coeffs)
            assert f.squared_norm() == pytest.approx(oracle, rel=1e-8, abs=1e-10)

    def test_add_scaled_many_matches_sequential(self):
        rng = np.random.default_rng(7)
        spec = gaussian(1.2)
        s = ExampleStore(dim=3)
        f = random_function(spec, s, 6, rng)
        extra = [s.add(rng.normal(size=3), 1) for _ in range(3)]
        updates = {e: rng.normal() for e in list(f.own_buffer[:2]) + extra}
        g = random_function(spec, s, 0, rng)  # fresh empty
        for e, c in f.coeffs.items():
            g.add_scaled(c, e)
        for e, c in updates.items():
            g.add_scaled(c, e)
        f.add_scaled_many(updates)
        assert f.squared_norm() == pytest.approx(g.squared_norm(), rel=1e-9, abs=1e-10)
        for e in updates:
            assert f.coeffs.get(e, 0.0) == pytest.approx(g.coeffs.get(e, 0.0), rel=1e-12)


class TestProjection:
    def test_inside_ball_untouched(self):
        s = ExampleStore(dim=2)
        f = BudgetedFunction(gaussian(1.0), s)
        e = s.add([1.0, 0.0], 1)
        f.add_scaled(0.5, e)
        coeff = dict(f.coeffs)
        f.project_ball(1.0)
        assert f.coeffs == coeff

    def test_scaling(self):
        s = ExampleStore(dim=2)
        f = BudgetedFunction(gaussian(1.0), s)
        e = s.add([1.0, 0.0], 1)
        f.add_scaled(2.0, e)
        f.project_ball(1.0)
        assert f.coeffs[e] == pytest.approx(1.0, abs=1e-12)
        assert f.squared_norm() == 1.0

    def test_projection_norm_exact_and_idempotent(self):
        rng = np.random.default_rng(8)
        s = ExampleStore(dim=3)
        f = random_function(gaussian(1.0), s, 15, rng, scale=3.0)
        assert f.norm() > 1.0
        f.project_ball(1.0)
        assert f.recompute_sq_norm() == pytest.approx(1.0, rel=1e-8)
        coeffs = dict(f.coeffs)
        f.project_ball(1.0)
        assert f.coeffs == coeffs  # idempotent

    def test_projection_is_nearest_point(self):
        # the projected function minimizes ||g - f_pre|| over the ball:
        # compare against 1000 random feasible candidates on the same atoms
        rng = np.random.default_rng(9)
        spec = gaussian(1.0)
        s = ExampleStore(dim=3)
        f = random_function(spec, s, 10, rng, scale=2.0)
        ids = list(f.coeffs.keys())
        beta_pre = np.array([f.coeffs[e] for e in ids])
        X = s.X[ids]
        G = np.array([[kernel_eval(spec, a, b) for b in X] for a in X])
        U = 1.0
        assert beta_pre @ G @ beta_pre > U**2
        f.project_ball(U)
        beta_post = np.array([f.coeffs[e] for e in ids])
        best = (beta_post - beta_pre) @ G @ (beta_post - beta_pre)
        for _ in range(1000):
            cand = rng.normal(size=len(ids))
            nrm = np.sqrt(max(cand @ G @ cand, 1e-300))
            cand *= rng.uniform(0.0, U) / nrm  # uniformly scaled into the ball
            dist = (cand - beta_pre) @ G @ (cand - beta_pre)
            assert best <= dist + 1e-9


class TestSplitHalf:
    def _four_atom(self, spec=None):
        spec = spec or gaussian(1.0)
        s = ExampleStore(dim=2)
        f = BudgetedFunction(spec, s)
        ids = []
        pts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        for p in pts:
            e = s.add(p, 1)
            f.add_scaled(0.5, e)
            f.buffer_append(e)
            ids.append(e)
        return s, f, ids

    def test_keep_oldest(self):
        s, f, ids = self._four_atom()
        removed = f.split_half()
        assert f.own_buffer == ids[:2]
        assert removed == ids[2:]
        assert all(e not in f.coeffs for e in removed)

    def test_odd_buffer_rejected(self):
        s = ExampleStore(dim=2)
        f = BudgetedFunction(gaussian(1.0), s)
        for p in ([0.0, 0.0], [1.0, 0.0], [0.0, 1.0]):
            e = s.add(p, 1)
            f.add_scaled(1.0, e)
            f.buffer_append(e)
        with pytest.raises(ValueError):
            f.split_half()

    def test_norm_recomputed(self):
        rng = np.random.default_rng(10)
        spec = gaussian(0.8)
        s = ExampleStore(dim=3)
        f = random_function(spec, s, 12, rng)
        f.split_half()
        assert f.squared_norm() == pytest.approx(brute_norm_sq(spec, s, f.coeffs), rel=1e-8, abs=1e-12)

    def test_archive_supported_mass_is_kept(self):
        # coefficients anchored outside own_buffer survive the split
        rng = np.random.default_rng(11)
        spec = gaussian(1.0)
        s = ExampleStore(dim=2)
        f = random_function(spec, s, 4, rng)
        outside = s.add(rng.normal(size=2), -1)
        f.add_scaled(0.33, outside)
        f.split_half()
        assert f.coeffs[outside] == pytest.approx(0.33)
        assert outside not in f.own_buffer

    def test_refcounts_released(self):
        s, f, ids = self._four_atom()
        removed = f.split_half()
        for e in removed:
            assert not s.live[e]  # reclaimed: no references remain
        assert_refcounts_conserved(s, functions=[f])


def test_drift_over_random_interleaving():
    rng = np.random.default_rng(12)
    spec = gaussian(1.1)
    s = ExampleStore(dim=3)
    f = random_function(spec, s, 6, rng)
    for _ in range(1000):
        op = rng.integers(3)
        if op == 0:
            if rng.random() < 0.5 and f.own_buffer:
                f.add_scaled(rng.normal(), rng.choice(f.own_buffer))
            else:
                e = s.add(rng.normal(size=3), rng.choice([-1, 1]))
                f.add_scaled(rng.normal(), e)
                f.buffer_append(e)
        elif op == 1:
            f.project_ball(2.0)
        elif op == 2 and f.buffer_size() >= 2 and f.buffer_size() % 2 == 0:
            f.split_half()
    oracle = brute_norm_sq(spec, s, f.coeffs)
    assert f.squared_norm() == pytest.approx(oracle, rel=1e-6, abs=1e-9)
    assert_refcounts_conserved(s, functions=[f])


def test_clear_releases_everything():
    rng = np.random.default_rng(13)
    s = ExampleStore(dim=2)
    f = random_function(gaussian(1.0), s, 6, rng)
    outside = s.add(rng.normal(size=2), 1)
    f.add_scaled(1.0, outside)
    f.clear()
    assert f.squared_norm() == 0.0
    assert f.coeffs == {}
    assert f.own_buffer == []
    assert len(s) == 0


_OPS = ("add", "add_scaled", "add_scaled_many", "project_ball", "split_half", "clear", "observe")


@settings(max_examples=80, deadline=None)
@given(
    n_functions=st.integers(2, 3),
    ops=st.lists(
        st.tuples(st.sampled_from(_OPS), st.integers(0, 2), st.integers(0, 2**32 - 1)),
        min_size=1, max_size=60,
    ),
)
def test_random_operations_keep_refcounts_and_rows(n_functions, ops):
    # Several functions and a reservoir share one store, as in the hinge
    # learner. Each op adds at most one example, so 60 ops fit the store.
    store = ExampleStore(dim=2)
    spec = gaussian(1.0)
    funcs = [BudgetedFunction(gaussian(0.5 + i, i), store) for i in range(n_functions)]
    res = Reservoir(store, capacity=3, archive_cap=6, rng=np.random.default_rng(0), specs=(spec,))
    given_rows = {}  # handle -> (x, y) passed to add

    def held():
        return scan_refcounts(store, functions=funcs, buffers=[res.sample, res.archive])

    def add(x, y):
        before = held()
        h = store.add(x, y)
        assert h not in before, "a held example's storage was handed out again"
        given_rows[h] = (np.array(x, dtype=float), float(y))
        return h

    for op, which, seed in ops:
        rng = np.random.default_rng(seed)
        f = funcs[which % n_functions]
        x, y = rng.normal(size=2), int(rng.choice([-1, 1]))
        pool = sorted(held())
        if op == "add":
            h = add(x, y)
            f.add_scaled(rng.normal(), h)
            f.buffer_append(h)
        elif op == "add_scaled" and pool:
            h = pool[int(rng.integers(len(pool)))]
            # half the time cancel the coefficient exactly, releasing a reference
            c = -f.coeffs[h] if h in f.coeffs and rng.random() < 0.5 else rng.normal()
            f.add_scaled(c, h)
        elif op == "add_scaled_many":
            updates = {h: -0.5 * c for h, c in res.optimistic_coeffs().items()}
            for h in rng.choice(pool, size=min(2, len(pool)), replace=False) if pool else ():
                updates[int(h)] = updates.get(int(h), 0.0) + rng.normal()
            if rng.random() < 0.5:
                updates[add(x, y)] = rng.normal()  # held by its coefficient only
            f.add_scaled_many(updates)
        elif op == "project_ball":
            f.project_ball(0.5)
        elif op == "split_half" and f.buffer_size() >= 2 and f.buffer_size() % 2 == 0:
            f.split_half()
        elif op == "clear":
            f.clear()
        elif op == "observe":
            if which == 0:  # the learner's path: the round's example is stored first
                h = add(x, y)
                res.observe(x, y, slot=h)
                store.release_if_unreferenced(h)
            else:
                before = held()
                if res.observe(x, y):
                    h = res.archive[-1]
                    assert h not in before, "a held example's storage was handed out again"
                    given_rows[h] = (x, float(y))

        counts = held()
        assert_refcounts_conserved(store, functions=funcs, buffers=[res.sample, res.archive])
        assert len(store) == len(counts)
        for h in counts:
            gx, gy = given_rows[h]
            assert np.array_equal(store.X[h], gx)
            assert store.label[h] == gy
