import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okselect import HedgeState

pytestmark = pytest.mark.bits


def expected_rate(K, second_moment):
    return math.sqrt(2.0 * math.log(K)) / math.sqrt(1.0 + second_moment)


def test_fresh_state_is_uniform():
    s = HedgeState(5)
    assert np.allclose(s.distribution(), 0.2)
    assert s.rate() == pytest.approx(math.sqrt(2 * math.log(5)))


def test_single_update_two_experts():
    s = HedgeState(2)
    s.update([0.0, 1.0])
    # the pre-update distribution was uniform, so the second moment is 0.5
    assert s.second_moment == pytest.approx(0.5, abs=1e-15)
    eta2 = expected_rate(2, 0.5)
    assert eta2 == pytest.approx(0.961351257733922, abs=1e-12)
    p = s.distribution()
    expect0 = 1.0 / (1.0 + math.exp(-eta2))
    assert p[0] == pytest.approx(expect0, abs=1e-12)
    assert p[1] == pytest.approx(1.0 - expect0, abs=1e-12)
    assert expect0 == pytest.approx(0.7234, abs=5e-4)


def test_two_round_replay():
    s = HedgeState(2)
    s.update([0.0, 1.0])
    p2 = s.distribution()
    s.update([1.0, 0.0])
    assert np.allclose(s.cum_loss, [1.0, 1.0])
    assert s.second_moment == pytest.approx(0.5 + p2[0], abs=1e-12)
    assert s.second_moment == pytest.approx(1.2234, abs=5e-4)
    # equal cumulative losses: back to uniform
    assert np.allclose(s.distribution(), 0.5, atol=1e-12)


def test_identical_losses_stay_uniform():
    s = HedgeState(4)
    for _ in range(100):
        s.update([0.3, 0.3, 0.3, 0.3])
    assert np.allclose(s.distribution(), 0.25, atol=1e-12)


def test_zero_losses_leave_distribution_unchanged():
    s = HedgeState(3)
    s.update([1.0, 0.0, 2.0])
    before = s.distribution()
    s.update([0.0, 0.0, 0.0])
    assert np.allclose(s.distribution(), before, atol=1e-15)


def test_invalid_losses_rejected():
    s = HedgeState(2)
    with pytest.raises(ValueError):
        s.update([-0.1, 0.0])
    with pytest.raises(ValueError):
        s.update([math.nan, 0.0])
    with pytest.raises(ValueError):
        s.update([1.0, 2.0, 3.0])


def test_distribution_simplex_and_permutation_equivariance():
    rng = np.random.default_rng(14)
    K = 6
    s = HedgeState(K)
    perm = rng.permutation(K)
    sp = HedgeState(K)
    for _ in range(200):
        c = rng.uniform(0, 2, size=K)
        s.update(c)
        sp.update(c[perm])
        p = s.distribution()
        assert p.min() >= 0
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.allclose(sp.distribution(), p[perm], atol=1e-12)


def test_argmax_follows_argmin_of_cumulative_loss():
    rng = np.random.default_rng(15)
    s = HedgeState(4)
    for _ in range(300):
        s.update(rng.uniform(0, 1, size=4))
        if len(np.flatnonzero(s.cum_loss == s.cum_loss.min())) == 1:
            assert s.distribution().argmax() == s.cum_loss.argmin()


def test_second_moment_monotone_and_underflow_safe():
    s = HedgeState(3)
    prev = 0.0
    for t in range(2000):
        s.update([1000.0, 0.0, 1000.0])  # extreme losses would underflow raw weights
        assert s.second_moment >= prev
        prev = s.second_moment
        p = s.distribution()
        assert np.isfinite(p).all()
        assert abs(p.sum() - 1.0) <= 1e-12
    assert p[1] > 0.99


class _FormulaHedge:
    """HedgeState's update as first written: full input scan, rate through numpy scalars."""

    def __init__(self, K):
        self.K = K
        self.cum_loss = np.zeros(K)
        self.second_moment = 0.0
        self.p = self.softmax()

    def rate(self):
        return float(np.sqrt(2.0 * np.log(self.K)) / np.sqrt(1.0 + self.second_moment))

    def softmax(self):
        z = -self.rate() * self.cum_loss
        z -= z.max()
        w = np.exp(z)
        return w / w.sum()

    def update(self, c):
        c = np.asarray(c, dtype=float)
        if not np.all(np.isfinite(c)) or np.any(c < 0):
            raise ValueError("losses must be finite and non-negative")
        p = self.p
        self.second_moment += float(p @ (c * c))
        self.cum_loss += c
        self.p = self.softmax()
        return p


@pytest.mark.parametrize("K", [1, 2, 5])
def test_lean_update_is_bit_identical_to_the_formulas(K):
    rng = np.random.default_rng(16 + K)
    lean, ref = HedgeState(K), _FormulaHedge(K)
    for t in range(400):
        # spans zeros, tiny and huge losses, so the exponentials underflow at times
        c = rng.choice([0.0, 1e-300, 0.5, 1.0, 30.0, 1e3]) * rng.uniform(0, 2, size=K)
        used = lean.update(c), ref.update(c)
        assert [v.hex() for v in used[0]] == [v.hex() for v in used[1]]
        assert [v.hex() for v in lean.distribution()] == [v.hex() for v in ref.p]
        assert lean.rate().hex() == ref.rate().hex()
        assert lean.second_moment.hex() == ref.second_moment.hex()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-12])
@pytest.mark.parametrize("K", [1, 2, 5])
def test_every_bad_loss_rejected_before_any_state_changes(K, bad):
    s = HedgeState(K)
    s.update(np.linspace(0.1, 1.0, K))
    before = (s.cum_loss.copy(), s.second_moment, s.distribution().copy())
    for where in range(K):
        c = np.full(K, 0.5)
        c[where] = bad
        with pytest.raises(ValueError, match="finite and non-negative"):
            s.update(c)
    assert np.array_equal(s.cum_loss, before[0]) and s.second_moment == before[1]
    assert np.array_equal(s.distribution(), before[2])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_bad_loss_of_an_expert_with_zero_weight_rejected(bad):
    # p_1 underflows to exactly 0: a bad loss there is still rejected, with no numpy warning first
    s = HedgeState(2)
    for _ in range(1000):
        s.update([0.0, 1e6])
    assert s.distribution()[1] == 0.0
    before = (s.cum_loss.copy(), s.second_moment)
    for c in ([0.5, bad], [bad, 0.5], [bad, -1.0]):
        with pytest.raises(ValueError, match="finite and non-negative"):
            s.update(c)
    assert np.array_equal(s.cum_loss, before[0]) and s.second_moment == before[1]


def test_finite_losses_whose_square_overflows_are_rejected():
    # Accepted, such a loss would leave the second moment inf and rate() 0, so every later
    # distribution uniform. The largest accepted loss is sqrt(max / 2), about 9.48e153.
    largest = math.sqrt(sys.float_info.max / 2)
    for K in (1, 2, 5):
        s = HedgeState(K)
        s.update(np.linspace(0.1, 1.0, K))
        before = (s.cum_loss.copy(), s.second_moment, s.distribution().copy())
        for bad in (1e200, 1.35e154, math.nextafter(largest, math.inf)):
            for where in range(K):
                c = np.full(K, 0.5)
                c[where] = bad
                with pytest.raises(ValueError, match="finite and non-negative"):
                    s.update(c)
        assert np.array_equal(s.cum_loss, before[0]) and s.second_moment == before[1]
        assert np.array_equal(s.distribution(), before[2])
        # Each round at the largest loss adds about max / 2 to the moment: the third would overflow it.
        s.update(np.full(K, largest))
        s.update(np.full(K, largest))
        assert math.isfinite(s.second_moment) and (K == 1 or s.rate() > 0)  # one expert has rate 0
        before = (s.cum_loss.copy(), s.second_moment)
        with pytest.raises(ValueError, match="second moment"):
            s.update(np.full(K, largest))
        assert np.array_equal(s.cum_loss, before[0]) and s.second_moment == before[1]


def test_one_expert_keeps_its_distribution_and_matches_the_full_softmax():
    # HedgeState(1) runs no softmax; _FormulaHedge(1) runs one every round.
    rng = np.random.default_rng(41)
    lean, ref = HedgeState(1), _FormulaHedge(1)
    p = lean.distribution()
    for t in range(3000):
        c = [rng.choice([0.0, 0.0, 1e-300, 0.3, 1.0, 50.0, 1e6, 1e150]) * rng.uniform(0, 2)]
        if t % 97 == 0:
            before = (lean.cum_loss.copy(), lean.second_moment)
            for bad in (math.nan, math.inf, -math.inf, -1.0, -1e-300):
                with pytest.raises(ValueError, match="finite and non-negative"):
                    lean.update([bad])
            assert np.array_equal(lean.cum_loss, before[0]) and lean.second_moment == before[1]
        used = lean.update(c)
        ref.update(c)
        assert used is p and lean.distribution() is p
        assert p.tolist() == [1.0] and ref.p.tolist() == [1.0] and not p.flags.writeable
        assert lean.second_moment.hex() == ref.second_moment.hex()
        assert float(lean.cum_loss[0]).hex() == float(ref.cum_loss[0]).hex()
        assert lean.rate().hex() == ref.rate().hex()
    assert lean.second_moment > 1e300  # the stream reached the large losses


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(
    st.floats(0.0, 9.4e153),
    st.sampled_from([0.0, -0.0, 5e-324, 2.0**-1022, 1.5e-154, 1e150, 9.4e153]),
), min_size=1, max_size=30))
def test_one_expert_moment_keeps_the_bits_of_the_dot_product(losses):
    # the one-expert moment adds c_0 * c_0 in Python; the oracle is the dot product with p = [1.0]
    s = HedgeState(1)
    p = s.distribution()
    moment = 0.0
    for c in losses:
        moment += float(p.dot(np.array([c]) * np.array([c])))
        if moment == math.inf:  # the moment's overflow is rejected
            with pytest.raises(ValueError, match="second moment"):
                s.update([c])
            break
        assert s.update([c]) is p
        assert s.second_moment.hex() == moment.hex() and type(s.second_moment) is float
