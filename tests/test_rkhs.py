import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okselect import (
    ExampleStore,
    HingeKernelSelector,
    HingeSelectorConfig,
    KernelExpansions,
    Reservoir,
    SmoothKernelSelector,
    SmoothSelectorConfig,
)
from okselect.kernels import gaussian, kernel_eval, kernel_rows, pairwise, polynomial, self_values
from okselect.protocol import run_stream
from okselect.rkhs import ROW_BLOCK

from conftest import (
    assert_refcounts_conserved,
    blob_stream,
    brute_norm_sq,
    brute_value,
    coeffs,
    guess_coeffs,
    handout_order,
    offer,
    random_expansion,
    scan_refcounts,
    store_example,
    value,
)


def anchor_step(ex: KernelExpansions, slot: int, c):
    """Step each f_i by c_i k_i(x_slot, .), as the learners do, with the closed-form
    norm change 2 c_i f_i(x_slot) + c_i^2 k_i(x_slot, x_slot)."""
    c = np.broadcast_to(np.asarray(c, dtype=float), ex.sq_norms.shape)
    k_ss = self_values(ex.specs, ex.store.sqnorm[slot])
    ex.step(slot, c, 2.0 * c * ex.values_at(slot) + c * c * k_ss)


class TestExampleStore:
    def test_freed_slot_is_reused_and_full_store_raises(self):
        s = ExampleStore(dim=2, capacity=2)
        a = s.add([1.0, 0.0], 1, 1.0)
        b = s.add([0.0, 1.0], -1, 1.0)
        with pytest.raises(RuntimeError):
            s.add([2.0, 2.0], 1, 8.0)  # the store never grows
        s.release(a)  # its one reference dropped: slot freed
        assert s.refs[a] == 0
        c = s.add([2.0, 2.0], 1, 8.0)
        assert c == a and len(s) == 2
        assert np.array_equal(s.X[c], [2.0, 2.0]) and np.array_equal(s.X[b], [0.0, 1.0])

    def test_slot_recycling_bounds_memory(self):
        s = ExampleStore(dim=1, capacity=4)
        for i in range(100):
            e = s.add([float(i)], 1, float(i * i))
            s.release(e)
        assert len(s) == 0
        assert s.X.shape[0] == 4  # never grew

    def test_negative_refcount_rejected(self):
        s = ExampleStore(dim=1)
        e = s.add([1.0], 1, 1.0)
        s.release(e)
        with pytest.raises(KeyError):
            s.release(e)  # already reclaimed

    def test_add_hands_out_one_reference(self):
        s = ExampleStore(dim=1, capacity=3)
        e = s.add([1.0], 1, 1.0)
        assert s.refs.tolist() == [1, 0, 0] and len(s) == 1  # the caller's reference
        s.incref(e, 2)
        s.release(e)
        s.release(e)
        assert s.refs[e] == 1 and len(s) == 1  # live while any reference is left
        s.release(e)
        assert s.refs[e] == 0 and len(s) == 0

    @pytest.mark.parametrize("op", ["incref", "release"])
    def test_free_slot_holds_no_example(self, op):
        s = ExampleStore(dim=1, capacity=3)
        e = s.add([1.0], 1, 1.0)
        s.release(e)
        for slot in (e, 2):  # freed, and never handed out
            with pytest.raises(KeyError, match=f"slot {slot} holds no example"):
                getattr(s, op)(slot)
        assert s.refs.tolist() == [0, 0, 0] and len(s) == 0

    @pytest.mark.parametrize("x", [np.zeros(3), np.zeros(1), 0.0], ids=["3", "1", "scalar"])
    def test_wrong_shaped_x_takes_no_slot(self, x):
        # add checks the shape before it takes a slot; without the check a (3,) x
        # raised numpy's broadcast error with the slot taken and unreferenced,
        # and a scalar x filled the row
        s = ExampleStore(dim=2, capacity=4)
        a = s.add([1.0, 0.0], 1, 1.0)
        s.add([0.0, 1.0], 1, 1.0)
        s.release(a)  # a freed slot, the next one add would take
        size, high_water, refs, order = len(s), s.high_water, s.refs.copy(), handout_order(s)
        with pytest.raises(ValueError, match=r"expected a \(2,\) vector"):
            s.add(x, 1, 0.0)
        assert (len(s), s.high_water, handout_order(s)) == (size, high_water, order)
        assert np.array_equal(s.refs, refs)

    @pytest.mark.parametrize("n", [0, -1])
    def test_incref_below_one_is_rejected(self, n):
        s = ExampleStore(dim=1, capacity=2)
        e = s.add([1.0], 1, 1.0)
        with pytest.raises(ValueError, match="must be >= 1"):
            s.incref(e, n)
        assert s.refs.tolist() == [1, 0] and len(s) == 1  # nothing changed
        assert s.add([2.0], 1, 4.0) == 1

    def test_high_water_mark_is_peak_occupancy(self):
        s = ExampleStore(dim=1, capacity=6)
        a, b, c = (s.add([float(i)], 1, float(i * i)) for i in range(3))
        assert (a, b, c) == (0, 1, 2) and s.high_water == 3
        s.release(b)
        s.release(a)
        assert s.high_water == 3 and len(s) == 1
        assert [s.add([5.0], 1, 25.0) for _ in range(3)] == [a, b, 3]  # freed slots first, then untouched
        assert s.high_water == 4 and not s.X[4:].any()

    def test_batch_rows(self):
        s = ExampleStore(dim=2)
        ids = [s.add([float(i), -float(i)], (-1) ** i, 2.0 * i * i) for i in range(5)]
        batch = ids[1:4]
        assert np.allclose(s.X[batch, 0], [1.0, 2.0, 3.0])
        assert np.allclose(s.sqnorm[batch], [2.0, 8.0, 18.0])
        assert np.allclose(s.label[batch], [-1.0, 1.0, -1.0])


class TestEvaluate:
    def test_empty_function_is_zero(self):
        s = ExampleStore(dim=2)
        ex = KernelExpansions((gaussian(1.0),), s)
        assert value(ex, 0, [1.0, 2.0]) == 0.0
        assert ex.sq_norms[0] == 0.0

    def test_single_atom_at_itself(self):
        s = ExampleStore(dim=2)
        ex = KernelExpansions((gaussian(1.0),), s)
        e = store_example(s, [0.3, -0.7], 1)
        ex.coef[0, e] = 1.0
        assert value(ex, 0, [0.3, -0.7]) == pytest.approx(1.0, abs=1e-12)

    def test_against_brute_force(self):
        rng = np.random.default_rng(3)
        s = ExampleStore(dim=3)
        spec = gaussian(0.9)
        ex, _ = random_expansion(spec, s, 20, rng)
        for _ in range(20):
            x = rng.normal(size=3)
            assert value(ex, 0, x) == pytest.approx(brute_value(spec, s, coeffs(ex), x), rel=1e-10, abs=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(4)
        s = ExampleStore(dim=3)
        spec = gaussian(1.5)
        ex, buf = random_expansion(spec, s, 10, rng)
        for _ in range(50):
            z = rng.normal(size=3)
            before = value(ex, 0, z)
            c = rng.normal()
            anchor = rng.choice(buf)
            expected = before + c * kernel_eval(spec, s.X[anchor], z)
            ex.coef[0, anchor] += c
            assert value(ex, 0, z) == pytest.approx(expected, rel=1e-9, abs=1e-10)


class TestNormTracking:
    def test_step_adds_coefficients_and_the_given_norm_changes(self):
        s = ExampleStore(dim=2, capacity=8)
        ex = KernelExpansions((gaussian(1.0), gaussian(2.0, 1), polynomial(2, 2)), s)
        a, b = (store_example(s, x, 1) for x in ([1.0, 0.0], [0.0, 1.0]))
        ex.step(a, np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.0, -0.25]))
        ex.step(b, 4.0, np.zeros(3))  # one coefficient for every kernel
        C = np.array([[1.0, -1.0], [0.0, 2.0], [3.0, 0.5]])
        ex.step(np.array([b, a]), C, np.array([1.0, 2.0, 3.0]))
        assert ex.coef[:, a].tolist() == [0.0, 4.0, 3.5]
        assert ex.coef[:, b].tolist() == [5.0, 4.0, 7.0]
        assert np.count_nonzero(ex.coef) == 5  # nothing else moved
        assert ex.sq_norms.tolist() == [1.5, 2.0, 2.75]  # the caller's changes, summed

    def test_single_atom_norm(self):
        s = ExampleStore(dim=2)
        ex = KernelExpansions((gaussian(1.0), gaussian(1.0, 1)), s)
        e = s.add([1.0, 1.0], 1, 2.0)
        anchor_step(ex, e, [1.0, 0.0])
        assert ex.sq_norms[0] == pytest.approx(1.0, abs=1e-12)
        anchor_step(ex, e, [0.0, -0.5])
        assert ex.sq_norms[1] == pytest.approx(0.25, abs=1e-12)
        assert ex.sq_norms[0] == pytest.approx(1.0, abs=1e-12)  # rows are independent

    def test_add_then_subtract_returns_to_start(self):
        rng = np.random.default_rng(5)
        s = ExampleStore(dim=3)
        ex, buf = random_expansion(gaussian(1.0), s, 8, rng)
        start = ex.sq_norms[0]
        e = buf[0]
        anchor_step(ex, e, 0.7)
        anchor_step(ex, e, -0.7)
        assert ex.sq_norms[0] == pytest.approx(start, abs=1e-10)

    @pytest.mark.parametrize("spec", [gaussian(0.8), polynomial(2)])
    def test_incremental_matches_gram(self, spec):
        rng = np.random.default_rng(6)
        s = ExampleStore(dim=3)
        ex, buf = random_expansion(spec, s, 20, rng)
        for _ in range(30):
            anchor_step(ex, rng.choice(buf), rng.normal())
            oracle = brute_norm_sq(spec, s, coeffs(ex))
            assert ex.sq_norms[0] == pytest.approx(oracle, rel=1e-8, abs=1e-10)

    def test_many_slot_step_matches_sequential(self):
        # a step on several slots at once, with the closed-form change
        # 2 sum_j c_j f(x_j) + c^T K c, against one anchor step per slot
        rng = np.random.default_rng(7)
        spec = gaussian(1.2)
        s = ExampleStore(dim=3)
        f, buf = random_expansion(spec, s, 6, rng)
        extra = [store_example(s, rng.normal(size=3), 1) for _ in range(3)]
        updates = {e: rng.normal() for e in buf[:2] + extra}
        g = KernelExpansions((spec,), s)
        for e, c in list(coeffs(f).items()) + list(updates.items()):
            anchor_step(g, e, c)
        slots, cs = np.array(list(updates)), np.array(list(updates.values()))
        block = np.array([[kernel_eval(spec, s.X[a], s.X[b]) for b in slots] for a in slots])
        f_at = np.array([f.values_at(e)[0] for e in slots])
        f.step(slots, cs[None, :], 2.0 * cs @ f_at + cs @ block @ cs)
        assert f.sq_norms[0] == pytest.approx(g.sq_norms[0], rel=1e-9, abs=1e-10)
        for e in updates:
            assert f.coef[0, e] == pytest.approx(g.coef[0, e], rel=1e-12)

    GRID = (gaussian(0.7, 0), polynomial(2, 1), gaussian(3.0, 2))

    def small_learner(self, algorithm, removal="half"):
        if algorithm == "momd_h":
            return HingeKernelSelector(HingeSelectorConfig(
                kernels=self.GRID, dim=3, budget=14, horizon=300, reservoir_size=2, removal=removal, seed=4,
            ))
        return SmoothKernelSelector(SmoothSelectorConfig(
            kernels=self.GRID, dim=3, budget=4, removal=removal, seed=4,
        ))

    @pytest.mark.parametrize("algorithm", ["momd_h", "momd_s"])
    @pytest.mark.parametrize("removal", ["half", "restart"])
    def test_learner_norm_caches_match_brute_force(self, algorithm, removal):
        # Rounds redraw a few rows, so proxies recur, and small budgets force removals.
        rng = np.random.default_rng(21)
        pool = rng.normal(size=(6, 3)) / 2.0
        learner = self.small_learner(algorithm, removal)
        ex, store = learner.expansions, learner.store
        proxies = removals = 0
        for t in range(300):
            x = pool[rng.integers(len(pool))]
            rec = learner.update(x, 1 if x.sum() + 0.3 * rng.normal() > 0 else -1)
            proxies += rec.branch.count("proxy")
            removals += int(np.count_nonzero(rec.removed))
            for i, spec in enumerate(self.GRID):
                want = brute_norm_sq(spec, store, coeffs(ex, i))
                assert ex.sq_norms[i] == pytest.approx(want, rel=1e-9, abs=1e-10), (t, i)
            learner.check_invariants()  # includes the self-similarity cache
        assert proxies > 0 and removals > 0

    @pytest.mark.parametrize("algorithm", ["momd_h", "momd_s"])
    def test_learner_layers_share_one_grid(self, algorithm):
        # the grid a learner builds is the one its expansions (and the hinge learner's
        # reservoir) keep, so one set of grid caches serves every layer
        learner = self.small_learner(algorithm)
        assert learner.expansions.specs is learner.kernels
        if algorithm == "momd_h":
            assert learner.reservoir.specs is learner.kernels

    @pytest.mark.parametrize("algorithm", ["momd_h", "momd_s"])
    def test_stale_self_similarity_fails_the_invariants(self, algorithm):
        rng = np.random.default_rng(22)
        learner = self.small_learner(algorithm)
        for _ in range(40):
            x = rng.normal(size=3)
            learner.update(x, 1 if x[0] > 0 else -1)
        ex, store = learner.expansions, learner.store
        live = np.flatnonzero(store.refs)
        assert len(live) and np.allclose(ex.self_k[:, live], self_values(ex.specs, store.sqnorm[live]), rtol=1e-14, atol=0)
        slot = live[-1]
        ex.self_k[1, slot] *= 1.0 + 1e-11  # the polynomial kernel's k(x, x) = ||x||^4
        with pytest.raises(AssertionError, match="self-similarity"):
            learner.check_invariants()
        ex.self_k[1, slot] = self_values(ex.specs, store.sqnorm[slot])[1] * (1.0 + 1e-13)
        learner.check_invariants()


class TestProjection:
    def test_inside_ball_untouched(self):
        s = ExampleStore(dim=2)
        ex = KernelExpansions((gaussian(1.0),), s)
        e = s.add([1.0, 0.0], 1, 1.0)
        ex.coef[0, e] = 0.5
        ex.recompute_sq_norms()
        coef = ex.coef.copy()
        ex.project(1.0)
        assert np.array_equal(ex.coef, coef)

    def test_scaling(self):
        s = ExampleStore(dim=2)
        ex = KernelExpansions((gaussian(1.0), gaussian(2.0, 1)), s)
        e = s.add([1.0, 0.0], 1, 1.0)
        ex.coef[:, e] = [2.0, 0.5]
        ex.recompute_sq_norms()
        ex.project(1.0)
        assert ex.coef[0, e] == pytest.approx(1.0, abs=1e-12)
        assert ex.sq_norms[0] == 1.0
        assert ex.coef[1, e] == 0.5  # a feasible row is left alone

    def test_projection_norm_exact_and_idempotent(self):
        rng = np.random.default_rng(8)
        s = ExampleStore(dim=3)
        ex, _ = random_expansion(gaussian(1.0), s, 15, rng, scale=3.0)
        assert ex.sq_norms[0] > 1.0
        ex.project(1.0)
        ex.recompute_sq_norms()
        assert ex.sq_norms[0] == pytest.approx(1.0, rel=1e-8)
        coef = ex.coef.copy()
        ex.project(1.0)
        assert np.array_equal(ex.coef, coef)  # idempotent

    def test_projection_is_nearest_point(self):
        # the projected function minimizes ||g - f_pre|| over the ball:
        # compare against 1000 random feasible candidates on the same atoms
        rng = np.random.default_rng(9)
        spec = gaussian(1.0)
        s = ExampleStore(dim=3)
        ex, _ = random_expansion(spec, s, 10, rng, scale=2.0)
        ids = list(coeffs(ex))
        beta_pre = ex.coef[0, ids].copy()
        X = s.X[ids]
        G = np.array([[kernel_eval(spec, a, b) for b in X] for a in X])
        U = 1.0
        assert beta_pre @ G @ beta_pre > U**2
        ex.project(U)
        beta_post = ex.coef[0, ids]
        best = (beta_post - beta_pre) @ G @ (beta_post - beta_pre)
        for _ in range(1000):
            cand = rng.normal(size=len(ids))
            nrm = np.sqrt(max(cand @ G @ cand, 1e-300))
            cand *= rng.uniform(0.0, U) / nrm  # uniformly scaled into the ball
            dist = (cand - beta_pre) @ G @ (cand - beta_pre)
            assert best <= dist + 1e-9


class TestSplitHalf:
    """The hinge learner's half-removal: drop the newer half of one kernel's buffer."""

    def _four_atom(self, spec=None):
        spec = spec or gaussian(1.0)
        s = ExampleStore(dim=2)
        ex = KernelExpansions((spec,), s)
        ids = []
        for p in ([0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]):
            e = store_example(s, p, 1)  # its reference is the buffer membership's
            ex.coef[0, e] = 0.5
            ids.append(e)
        ex.recompute_sq_norms()
        return s, ex, ids

    def test_keep_oldest(self):
        s, ex, ids = self._four_atom()
        ex.drop(slice(0, 1), ids[2:])
        assert np.flatnonzero(ex.coef[0]).tolist() == sorted(ids[:2])
        assert np.all(ex.coef[0, ids[2:]] == 0.0)
        assert s.refs[ids[:2]].all() and not s.refs[ids[2:]].any()

    def test_norm_recomputed(self):
        rng = np.random.default_rng(10)
        spec = gaussian(0.8)
        s = ExampleStore(dim=3)
        ex, buf = random_expansion(spec, s, 12, rng)
        ex.drop(slice(0, 1), buf[6:])
        assert ex.sq_norms[0] == pytest.approx(brute_norm_sq(spec, s, coeffs(ex)), rel=1e-8, abs=1e-12)

    def test_archive_supported_mass_is_kept(self):
        # coefficients anchored outside the buffer survive the split
        rng = np.random.default_rng(11)
        spec = gaussian(1.0)
        s = ExampleStore(dim=2)
        ex, buf = random_expansion(spec, s, 4, rng)
        outside = store_example(s, rng.normal(size=2), -1)  # held by an archive, as in the hinge learner
        ex.coef[0, outside] = 0.33
        ex.drop(slice(0, 1), buf[2:])
        assert ex.coef[0, outside] == pytest.approx(0.33)
        assert ex.sq_norms[0] == pytest.approx(brute_norm_sq(spec, s, coeffs(ex)), rel=1e-8, abs=1e-12)

    def test_refcounts_released(self):
        s, ex, ids = self._four_atom()
        ex.drop(slice(0, 1), ids[2:])
        for e in ids[2:]:
            assert s.refs[e] == 0  # reclaimed: no references remain
        assert_refcounts_conserved(s, buffers=[ids[:2]])


class TestDrop:
    def test_frees_slots_in_the_order_given(self):
        # the freed slots are handed out again last-freed first, so the order
        # given decides which slot each later example gets
        s = ExampleStore(dim=1, capacity=6)
        ex = KernelExpansions((gaussian(1.0),), s)
        ids = [store_example(s, [float(i)], 1) for i in range(5)]
        for e in ids:
            ex.coef[0, e] = 1.0
        s.incref(ids[3])  # a second membership: dropping one leaves it live
        order = [ids[2], ids[0], ids[3], ids[4]]
        ex.drop(slice(0, 1), np.array(order))
        assert s.refs[ids[3]] == 1
        reused = [store_example(s, [9.0], 1) for _ in range(4)]
        assert reused[:3] == [ids[4], ids[0], ids[2]]  # last freed is reused first
        assert reused[3] not in ids  # then the never-used slot

    @pytest.mark.parametrize("order, refs, freed", [([2, 0, 1, 3], [0, 1, 0, 0, 0], [3, 0, 2, 4])])
    def test_frees_like_a_sequence_of_releases(self, order, refs, freed):
        # slots dropped at once are freed as one release each, in the order
        # given, and add hands them out again as Python ints
        stores = [ExampleStore(dim=1, capacity=5) for _ in range(2)]
        for s in stores:
            ids = [store_example(s, [float(i)], 1) for i in range(4)]
            s.incref(ids[1])  # a second holder: its first release leaves it live
        for e in order:
            stores[0].release(e)
        KernelExpansions((gaussian(1.0),), stores[1]).drop(slice(0, 1), np.array(order))
        for s in stores:
            assert s.refs.tolist() == refs and len(s) == 5 - len(freed)
        reused = [[store_example(s, [9.0], 1) for _ in range(len(freed))] for s in stores]
        assert reused[0] == reused[1] == freed  # last freed first, then the never-used slot
        assert all(type(slot) is int for slot in reused[0] + reused[1])

    @pytest.mark.parametrize(
        "bad, error",
        [("released", KeyError), ("listed_twice", KeyError), ("listed_twice_held_twice", KeyError),
         ("past_the_store", IndexError)],
    )
    def test_a_bad_slot_changes_nothing(self, bad, error):
        # dropping [0, 1, 2, 3] after slot 2 was released, with slot 1 listed twice (also
        # while it holds two references), or with a slot past the store, raises before
        # any slot is released or any coefficient or norm moves
        rng = np.random.default_rng(15)
        s = ExampleStore(dim=2, capacity=6)
        ex, buf = random_expansion(gaussian(1.0), s, 4, rng)
        if bad == "released":
            s.release(buf[2])
        elif bad.startswith("listed_twice"):
            if bad == "listed_twice_held_twice":
                s.incref(buf[1])
            buf.insert(2, buf[1])
        else:
            buf.append(s.capacity)
        before = (s.refs.copy(), handout_order(s), ex.coef.copy(), ex.sq_norms.copy())
        with pytest.raises(error):
            ex.drop(slice(0, 1), np.array(buf))
        after = (s.refs, handout_order(s), ex.coef, ex.sq_norms)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_keeps_mass_outside_the_dropped_slots(self):
        # the smooth learner's removal: every kernel at once, norms over the kept slots
        rng = np.random.default_rng(14)
        specs = (gaussian(0.7, 0), polynomial(2, 1))
        s = ExampleStore(dim=3)
        ex = KernelExpansions(specs, s)
        buffer = [store_example(s, rng.normal(size=3), 1) for _ in range(6)]
        for e in buffer:
            ex.coef[:, e] = rng.normal(size=2)
        ex.recompute_sq_norms()
        kept = ex.coef[:, buffer[3:]].copy()
        ex.drop(slice(None), np.array(buffer[:3]), keep=np.array(buffer[3:]))
        assert not ex.coef[:, buffer[:3]].any()
        assert np.array_equal(ex.coef[:, buffer[3:]], kept)
        for i, spec in enumerate(specs):
            assert ex.sq_norms[i] == pytest.approx(brute_norm_sq(spec, s, coeffs(ex, i)), rel=1e-9, abs=1e-12)
        assert_refcounts_conserved(s, buffers=[buffer[3:]])


class TestGramReuse:
    """A removal that is handed its previous record reuses that record's Gram
    matrices while the kept slots hold the same examples."""

    GRID = (gaussian(0.5, 0), gaussian(2.0, 1), polynomial(2, 2), gaussian(8.0, 3))

    @pytest.mark.bits
    def test_reused_norms_are_the_bits_of_a_fresh_pass(self):
        # a momd_h stream whose buffers fill and split many times; each reused
        # norm is checked against a fresh pass over the same slots, then restored
        X, y = blob_stream(400, 4, seed=45, noise=1.5)
        learner = HingeKernelSelector(HingeSelectorConfig(kernels=self.GRID, dim=4, budget=40, horizon=400, seed=5))
        ex = learner.expansions
        recompute = ex.recompute_sq_norms
        reused = []

        def checked(kernels=slice(None), slots=None, last=None):
            record = recompute(kernels, slots, last)
            if last and record is last:
                got = ex.sq_norms[kernels].copy()
                KernelExpansions.recompute_sq_norms(ex, kernels, slots)  # a fresh pass over the same slots
                reused.append((got.tobytes(), ex.sq_norms[kernels].tobytes()))
                ex.sq_norms[kernels] = got
            return record

        ex.recompute_sq_norms = checked
        run_stream(learner, X, y)
        assert len(reused) >= 1
        assert all(got == fresh for got, fresh in reused)
        learner.check_invariants()

    def test_a_refilled_slot_is_recomputed(self):
        # two drops leave the same slot ids with the same coefficients, but one
        # slot was freed and refilled in between: the norm is the new example's
        spec = gaussian(1.0)
        s = ExampleStore(dim=2, capacity=4)
        ex = KernelExpansions((spec,), s)
        a, b, c = (store_example(s, x, 1) for x in ([0.0, 0.0], [1.0, 0.0], [0.0, 1.0]))
        ex.coef[0, [a, b, c]] = [0.5, -0.25, 1.0]
        first = ex.drop(slice(0, 1), [c], last=())
        old = ex.sq_norms[0]
        ex.drop(slice(0, 1), [b])
        assert [store_example(s, [3.0, 1.0], 1), store_example(s, [2.0, 2.0], 1)] == [b, c]
        ex.coef[0, [b, c]] = [-0.25, 1.0]
        second = ex.drop(slice(0, 1), [c], last=first)
        assert second is not first and second[0][:2] == first[0][:2]  # the same slice and slots
        assert ex.sq_norms[0] != old
        assert ex.sq_norms[0] == pytest.approx(brute_norm_sq(spec, s, coeffs(ex)), rel=1e-12)
        assert ex.drop(slice(0, 1), [], last=second) is second  # nothing changed since: reused

    def test_a_keep_array_overwritten_after_the_call_cannot_fake_a_reuse(self):
        # the smooth learner's pattern: keep is a view of an order array that
        # the caller overwrites at once; here with slots filled as often as the
        # old ones, so only the record's own copy of its slots tells them apart
        rng = np.random.default_rng(16)
        spec = gaussian(1.0)
        s = ExampleStore(dim=2, capacity=6)
        ex = KernelExpansions((spec,), s)
        slots = [store_example(s, rng.normal(size=2), 1) for _ in range(6)]
        ex.coef[0, slots[:4]] = rng.normal(size=4)
        order = np.array(slots[:4])
        record = ex.drop(slice(None), order[:2], keep=order[2:], last=())
        order[:2] = order[2:]
        order[2:] = slots[4:]
        assert record[0][1] == np.array(slots[2:4], dtype=np.intp).tobytes()
        ex.coef[0, slots[4:]] = rng.normal(size=2)
        assert ex.drop(slice(None), order[:2], keep=order[2:], last=record) is not record
        assert ex.sq_norms[0] == pytest.approx(brute_norm_sq(spec, s, coeffs(ex)), rel=1e-12)

    def test_a_restart_keeps_an_empty_record(self):
        rng = np.random.default_rng(17)
        s = ExampleStore(dim=2, capacity=5)
        ex, buf = random_expansion(gaussian(1.0), s, 4, rng)
        ex.coef[0] = 0.0
        record = ex.drop(slice(0, 1), buf, last=())
        assert ex.sq_norms[0] == 0.0 and record[0][1] == b"" and record[1].shape == (1, 0, 0)
        buf = [store_example(s, rng.normal(size=2), 1) for _ in range(4)]  # refilled, with the row zeroed
        assert ex.drop(slice(0, 1), buf, last=record) is record
        assert ex.sq_norms[0] == 0.0 and len(s) == 0

    def test_a_record_of_another_kernel_is_not_reused(self):
        # the same slots and fill counts under another kernel give that kernel's own Gram
        rng = np.random.default_rng(19)
        specs = (gaussian(0.5), gaussian(3.0))
        s = ExampleStore(dim=2)
        ex = KernelExpansions(specs, s)
        slots = [store_example(s, rng.normal(size=2), 1) for _ in range(4)]
        ex.coef[:, slots] = rng.normal(size=(2, 4))
        record = ex.recompute_sq_norms(slice(0, 1), last=())
        assert ex.recompute_sq_norms(slice(1, 2), last=record) is not record
        for i, spec in enumerate(specs):
            assert ex.sq_norms[i] == pytest.approx(brute_norm_sq(spec, s, coeffs(ex, i)), rel=1e-12)

    def test_no_record_is_kept_without_one_handed_in(self):
        rng = np.random.default_rng(18)
        s = ExampleStore(dim=2)
        ex, buf = random_expansion(gaussian(1.0), s, 4, rng)
        assert ex.drop(slice(0, 1), buf[2:]) is None
        assert ex.recompute_sq_norms() is None


def test_drift_over_random_interleaving():
    rng = np.random.default_rng(12)
    spec = gaussian(1.1)
    s = ExampleStore(dim=3)
    ex, buf = random_expansion(spec, s, 6, rng)
    for _ in range(1000):
        op = rng.integers(3)
        if op == 0:
            if rng.random() < 0.5 and len(buf):
                anchor_step(ex, rng.choice(buf), rng.normal())
            else:
                e = store_example(s, rng.normal(size=3), rng.choice([-1, 1]))
                anchor_step(ex, e, rng.normal())
                buf.append(e)
        elif op == 1:
            ex.project(2.0)
        elif op == 2 and len(buf) >= 2 and len(buf) % 2 == 0:
            ex.drop(slice(0, 1), buf[len(buf) // 2 :])
            del buf[len(buf) // 2 :]
    oracle = brute_norm_sq(spec, s, coeffs(ex))
    assert ex.sq_norms[0] == pytest.approx(oracle, rel=1e-6, abs=1e-9)
    assert_refcounts_conserved(s, buffers=[buf])


def test_clear_releases_everything():
    # the hinge learner's restart: the row is zeroed first, then the whole buffer dropped
    rng = np.random.default_rng(13)
    s = ExampleStore(dim=2)
    ex, buf = random_expansion(gaussian(1.0), s, 6, rng)
    outside = store_example(s, rng.normal(size=2), 1)  # the round's example, in no buffer
    ex.coef[0, outside] = 1.0
    ex.coef[0] = 0.0
    ex.drop(slice(0, 1), buf)
    s.release(outside)  # the round's own reference
    assert ex.sq_norms[0] == 0.0
    assert not ex.coef.any()
    assert len(s) == 0


_OPS = ("add", "step", "step_many", "project", "drop_half", "restart", "observe")


@settings(max_examples=80, deadline=None)
@given(
    n_kernels=st.integers(2, 3),
    ops=st.lists(
        st.tuples(st.sampled_from(_OPS), st.integers(0, 2), st.integers(0, 2**32 - 1)),
        min_size=1, max_size=60,
    ),
)
def test_random_operations_keep_refcounts_and_rows(n_kernels, ops):
    # Several kernels' expansions and a reservoir share one store, as in the
    # hinge learner, and steps land only where that learner puts them: on a
    # kernel's own buffer, on the archive, or on a new example that then
    # joins the buffer. Each op adds at most one example, so 60 ops fit.
    store = ExampleStore(dim=2)
    spec = gaussian(1.0)
    ex = KernelExpansions(tuple(gaussian(0.5 + i, i) for i in range(n_kernels)), store)
    res = Reservoir(store, capacity=3, archive_cap=6, rng=np.random.default_rng(0), specs=(spec,))
    buffers = [[] for _ in range(n_kernels)]  # each kernel's slots, oldest first, one reference each
    records = [()] * n_kernels  # each kernel's last removal record, handed back as the hinge learner does
    given_rows = {}  # handle -> (x, y) passed to add

    def held():
        return scan_refcounts(store, buffers=[*buffers, res.archive])

    def join(i, h):
        buffers[i].append(h)  # a new example: the reference add handed out becomes the membership's

    def drop(i, slots):
        records[i] = ex.drop(slice(i, i + 1), slots, last=records[i])
        got = ex.sq_norms[i]
        ex.recompute_sq_norms(slice(i, i + 1))
        assert float(got).hex() == float(ex.sq_norms[i]).hex(), "a reused Gram moved a norm"

    def add(x, y):
        before = held()
        h = store_example(store, x, y)
        assert h not in before, "a held example's storage was handed out again"
        given_rows[h] = (np.array(x, dtype=float), float(y))
        return h

    for op, which, seed in ops:
        rng = np.random.default_rng(seed)
        i = which % n_kernels
        x, y = rng.normal(size=2), int(rng.choice([-1, 1]))
        pool = sorted(set(buffers[i]) | set(res.archive))
        if op == "add":
            h = add(x, y)
            ex.coef[i, h] += rng.normal()
            join(i, h)
        elif op == "step" and pool:
            h = pool[int(rng.integers(len(pool)))]
            # half the time cancel the coefficient exactly
            c = -ex.coef[i, h] if ex.coef[i, h] != 0.0 and rng.random() < 0.5 else rng.normal()
            ex.coef[i, h] += c
        elif op == "step_many":
            updates = {h: -0.5 * c for h, c in guess_coeffs(res).items()}
            for h in rng.choice(pool, size=min(2, len(pool)), replace=False) if pool else ():
                updates[int(h)] = updates.get(int(h), 0.0) + rng.normal()
            new = add(x, y) if rng.random() < 0.5 else None
            if new is not None:
                updates[new] = rng.normal()
            ex.coef[i, list(updates)] += list(updates.values())
            if new is not None:
                join(i, new)
        elif op == "project":
            ex.project(0.5)
        elif op == "drop_half" and len(buffers[i]) >= 2 and len(buffers[i]) % 2 == 0:
            n = len(buffers[i]) // 2
            drop(i, buffers[i][n:])
            del buffers[i][n:]
        elif op == "restart":
            ex.coef[i] = 0.0
            drop(i, buffers[i])
            buffers[i].clear()
        elif op == "observe":
            if which == 0:  # the learner's path: the round's example is stored first
                h = add(x, y)
                res.observe(h)
                store.release(h)
            else:  # the same path through the tests' helper; the slot it stores in must have been free
                before = held()
                if offer(res, x, y):
                    h = res.archive[-1]
                    assert h not in before, "a held example's storage was handed out again"
                    given_rows[h] = (x, float(y))

        counts = held()
        assert_refcounts_conserved(store, buffers=[*buffers, res.archive])
        assert len(store) == len(counts)
        for h in counts:
            gx, gy = given_rows[h]
            assert np.array_equal(store.X[h], gx)
            assert store.label[h] == gy
        # every coefficient sits on the kernel's own buffer or the archive
        for k, buf in enumerate(buffers):
            assert set(np.flatnonzero(ex.coef[k]).tolist()) <= set(buf) | set(res.archive)
        assert not ex.coef[:, store.refs == 0].any()


@pytest.mark.bits
class TestHighWaterMark:
    """The expansions' kernel rows pass only over the slots the store has ever handed out."""

    GRID = (gaussian(0.5, 0), gaussian(2.0, 1), polynomial(2, 2), gaussian(8.0, 3))

    @pytest.mark.parametrize("removal", ["half", "restart"])
    def test_rows_below_the_mark_match_a_full_pass(self, removal):
        # Float features with d >= 8, where a BLAS matrix-vector product can
        # round a row differently by its place in a block of rows, and a small
        # pool, so inputs repeat and proxies fire.
        rng = np.random.default_rng(31)
        d = 10
        pool = rng.normal(size=(24, d)) / 3.0
        learner = HingeKernelSelector(HingeSelectorConfig(
            kernels=self.GRID, dim=d, budget=40, horizon=300, reservoir_size=2, removal=removal, seed=3,
        ))
        store, ex, grid = learner.store, learner.expansions, learner.kernels
        peak = 0
        add = store.add

        def counted_add(*args):
            nonlocal peak
            slot = add(*args)
            peak = max(peak, len(store))
            return slot

        store.add = counted_add
        seen = set()
        for t in range(300):
            x = pool[rng.integers(len(pool))]
            rec = learner.update(x, 1 if x[0] * x[1] + 0.1 * rng.normal() > 0 else -1)
            seen.update(rec.branch)
            if rec.removed.any():
                seen.add("removed")
            mark = store.high_water
            assert mark == peak, t
            q = pool[rng.integers(len(pool))]
            qsq = float(q @ q)
            rows = ex.rows(q, qsq)
            full = kernel_rows(grid, *pairwise(store.X, store.sqnorm, q, qsq, grid.gaussian))
            assert rows.shape == full.shape
            assert np.array_equal(rows[:, :mark].view(np.int64), full[:, :mark].view(np.int64)), t
            n = -(-mark // ROW_BLOCK) * ROW_BLOCK
            assert n < store.capacity and not rows[:, n:].any(), t  # the pass stopped short of the capacity
            learner.check_invariants()
        assert {"proxy", "sampled", "removed"} <= seen

    @pytest.mark.parametrize("removal", ["half", "restart"])
    def test_label_sums_below_the_mark_match_a_full_pass(self, removal):
        # The reservoir's pass against a new sample covers only the slots below
        # the mark, rounded up to whole blocks of rows. Float features with
        # d >= 8 and samples of several examples. Each stream's first sample
        # change comes at a mark of 1, where a one-row pass would be a
        # matrix-vector product and round the first slot's sums differently
        # about half the time, so several streams are played.
        d = 12
        checked = short = 0
        for seed in range(8):
            rng = np.random.default_rng(32 + seed)
            pool = rng.normal(size=(30, d)) / 3.0
            learner = HingeKernelSelector(HingeSelectorConfig(
                kernels=self.GRID, dim=d, budget=60, horizon=400, reservoir_size=6, removal=removal, seed=seed,
            ))
            store, res, grid = learner.store, learner.reservoir, learner.kernels
            for t in range(150):
                x = pool[rng.integers(len(pool))]
                rec = learner.update(x, 1 if x[0] * x[1] + 0.1 * rng.normal() > 0 else -1)
                if not rec.reservoir_accepted:
                    continue
                v, mark = res.sample, store.high_water
                full = np.matmul(kernel_rows(grid, *pairwise(store.X, store.sqnorm, store.X[v], store.sqnorm[v])), res.labels)
                assert np.array_equal(res.label_sums[:, :mark].view(np.int64), full[:, :mark].view(np.int64)), (seed, t)
                n = min(-(-mark // ROW_BLOCK) * ROW_BLOCK, store.capacity)
                assert not res.label_sums[:, n:].any(), (seed, t)
                checked += 1
                short += n < store.capacity
                learner.check_invariants()
        assert checked >= 50 and short >= 40

    @pytest.mark.parametrize("field", ["refs", "coef", "self_k"])
    def test_state_above_the_mark_fails_the_invariants(self, field):
        store = ExampleStore(dim=2, capacity=5)
        ex = KernelExpansions(self.GRID, store)
        slot = ex.add(np.ones(2), 1, 2.0, self_values(ex.specs, 2.0))
        ex.check_invariants(radius=1.0)
        if field == "refs":
            store.refs[3] = 1
        else:
            getattr(ex, field)[2, 3] = 0.5
        with pytest.raises(AssertionError, match="above the high-water mark"):
            ex.check_invariants(radius=1.0)
        assert slot == 0 and store.high_water == 1
