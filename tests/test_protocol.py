"""The shared round protocol: input checks of every learner, the round record
every learner returns, and the exports."""

import copy
import importlib
import pkgutil
import sys
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import okselect
from okselect import (
    ExperimentConfig,
    HingeKernelSelector,
    HingeSelectorConfig,
    RakerBaseline,
    RakerConfig,
    SmoothKernelSelector,
    SmoothSelectorConfig,
    gaussian,
    polynomial,
    run,
    run_stream,
)
from okselect.bench import _LEARNERS, _learner_config, load_dataset
from okselect.data import permute
from okselect.protocol import Prediction, RoundRecord, check_features, mix
from okselect.smooth_learner import pea_losses

from conftest import blob_stream, state_digest

D = 4
GRID = tuple(gaussian(s, i) for i, s in enumerate((0.25, 1.0, 4.0, 16.0, 64.0)))
LEARNERS = {
    "momd_h": lambda: HingeKernelSelector(HingeSelectorConfig(
        kernels=GRID, dim=D, budget=30, horizon=60, reservoir_size=3, seed=7)),
    "momd_s": lambda: SmoothKernelSelector(SmoothSelectorConfig(kernels=GRID, dim=D, budget=6, seed=14)),
    "raker": lambda: RakerBaseline(RakerConfig(kernels=GRID, dim=D, num_features=16, step_size=0.1, seed=3)),
}
BAD_X = {
    "nan": np.array([np.nan, 0.0, 0.0, 0.0]),
    "+inf": np.array([0.0, np.inf, 0.0, 0.0]),
    "-inf": np.array([0.0, 0.0, -np.inf, 0.0]),
    "overflow": np.array([1e200, 0.0, 0.0, 0.0]),  # finite, but its square overflows
    "long": np.zeros(D + 1),
    "column": np.zeros((D, 1)),
}


def assert_same_state(a, b, path="learner"):
    """Recursive exact equality of two object graphs: arrays bit for bit, generators by state."""
    assert type(a) is type(b), path
    if isinstance(a, np.ndarray):
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes()), path
    elif isinstance(a, np.random.Generator):
        assert a.bit_generator.state == b.bit_generator.state, path
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for key in a:
            assert_same_state(a[key], b[key], f"{path}[{key!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (u, v) in enumerate(zip(a, b)):
            assert_same_state(u, v, f"{path}[{i}]")
    elif hasattr(a, "__dict__"):
        assert_same_state(vars(a), vars(b), path)
    else:
        assert a == b or (a != a and b != b), path  # a NaN equals a NaN here


def played(name, rounds=40):
    """A learner of the given kind after ``rounds`` rounds of a blob stream, and the stream."""
    X, y = blob_stream(60, D, seed=29)
    learner = LEARNERS[name]()
    run_stream(learner, X, y[:rounds])
    return learner, X, y


def assert_rejected(learner, call):
    """``call`` raises ValueError and leaves ``learner`` as it was."""
    before = copy.deepcopy(learner)
    with pytest.raises(ValueError):
        call()
    assert_same_state(learner, before)


@pytest.mark.parametrize("name", LEARNERS)
@pytest.mark.parametrize("bad", BAD_X)
def test_bad_features_rejected_before_any_state_changes(name, bad):
    learner, X, y = played(name)
    x = BAD_X[bad]
    assert_rejected(learner, lambda: learner.predict(x))
    assert_rejected(learner, lambda: learner.update(x, 1))  # no pending prediction
    learner.predict(X[40])
    assert_rejected(learner, lambda: learner.update(x, -1))  # pending prediction of another x
    learner.update(X[40], y[40])


@pytest.mark.parametrize("name", LEARNERS)
@pytest.mark.parametrize("label", [0, 2])
def test_bad_label_rejected_before_any_state_changes(name, label):
    learner, X, y = played(name)
    learner.predict(X[40])
    assert_rejected(learner, lambda: learner.update(X[40], label))
    learner.update(X[40], y[40])  # the pending prediction still serves the round


@pytest.mark.parametrize("name", LEARNERS)
def test_prediction_opens_with_values_aggregate_label(name):
    # the benchmark harness indexes a prediction: pred[2] is the label, pred[1] the aggregate
    learner, X, _ = played(name)
    pred = learner.predict(X[40])
    assert isinstance(pred, Prediction)
    per_kernel, aggregate, label = pred[:3]
    assert per_kernel is pred.per_kernel and per_kernel.shape == (len(GRID),)
    assert type(aggregate) is float and aggregate == pred.aggregate
    assert label == pred.label == (1 if aggregate >= 0 else -1)


@pytest.mark.parametrize("name", LEARNERS)
def test_record_carries_the_pending_prediction(name):
    X, y = blob_stream(60, D, seed=31)
    learner = LEARNERS[name]()
    for t in range(len(y)):
        x = X[t]
        pred = learner.predict(x)
        # odd rounds hand update an equal copy: a second predict runs, and it makes the same bits
        rec = learner.update(x.copy() if t % 2 else x, y[t])
        assert isinstance(rec, RoundRecord)
        assert (rec.t, rec.label, rec.aggregate) == (t + 1, pred.label, pred.aggregate), t
        assert rec.per_kernel.tobytes() == pred.per_kernel.tobytes(), t
        assert (rec.per_kernel is pred.per_kernel) == (t % 2 == 0), t  # the pending prediction, by identity
        assert rec.truth == y[t] and rec.mistake == (pred.label != y[t]), t
        if name == "raker":
            loss = learner.config.loss
            assert rec.losses.tolist() == [loss.value(v, int(y[t])) for v in pred.per_kernel.tolist()], t
            assert rec.branch is None and rec.coin is None and rec.removed is None


@pytest.mark.parametrize("algorithm, loss", [("momd_h", "hinge"), ("momd_s", "logistic"), ("raker", "hinge")])
def test_bench_run_matches_a_hand_loop(algorithm, loss):
    config = ExperimentConfig(
        dataset={"generator": "lowerbound", "budget": 8, "rounds": 300, "seed": 2},
        algorithm=algorithm, loss=loss, B=12, M=3, D=32, repeats=1, seed=4,
        kernels=[{"kind": "gaussian", "sigma": 0.5}, {"kind": "gaussian", "sigma": 2.0}],
    )
    row = run(config).rows[0]
    ds = permute(load_dataset(config), config.seed)
    learner = _LEARNERS[algorithm](_learner_config(config, ds, config.seed))
    loss_fn = config.loss_object()
    X = ds.dense_features()
    mistakes, cum = 0, 0.0
    for t in range(ds.num_examples):
        pred = learner.predict(X[t])
        mistakes += pred.label != ds.y[t]
        cum += loss_fn.value(pred.aggregate, int(ds.y[t]))
        learner.update(X[t], int(ds.y[t]))
    assert row["AMR_percent"] == 100.0 * mistakes / ds.num_examples
    assert row["cum_loss"] == cum


@pytest.mark.parametrize("name", LEARNERS)
def test_run_stream_hands_update_the_object_predict_received(name):
    X, y = blob_stream(60, D, seed=31)
    learner = LEARNERS[name]()
    calls = []

    def spy(method):
        real = getattr(learner, method)

        def call(x, *rest):
            calls.append((method, x))
            return real(x, *rest)

        setattr(learner, method, call)

    spy("predict")
    spy("update")
    run_stream(learner, X, y)
    # a second predict inside update would show up as a third call in its round
    assert [method for method, _ in calls] == ["predict", "update"] * len(y)
    for t in range(len(y)):
        (_, seen_by_predict), (_, seen_by_update) = calls[2 * t : 2 * t + 2]
        assert seen_by_update is seen_by_predict and np.array_equal(seen_by_predict, X[t]), t


@pytest.mark.parametrize("name", LEARNERS)
def test_run_stream_feeds_every_record_in_order(name):
    X, y = blob_stream(60, D, seed=31)
    records = []
    run_stream(LEARNERS[name](), X, y, records.append)
    assert all(isinstance(rec, RoundRecord) for rec in records)
    assert [rec.t for rec in records] == list(range(1, len(y) + 1))
    assert [rec.truth for rec in records] == y.tolist()


@pytest.mark.parametrize("name", LEARNERS)
def test_run_stream_returns_a_hand_loops_mistakes_and_loss(name):
    X, y = blob_stream(60, D, seed=32, noise=1.5)
    got = run_stream(LEARNERS[name](), X, y)
    learner = LEARNERS[name]()
    mistakes, cum = 0, 0.0
    for t in range(len(y)):
        x = X[t]
        pred = learner.predict(x)
        mistakes += pred.label != y[t]
        cum += learner.loss.value(pred.aggregate, int(y[t]))
        learner.update(x, int(y[t]))
    assert mistakes > 0
    assert got == (mistakes, cum)


def test_mix_signs_the_mixture_and_the_record_copies_the_prediction():
    pred = mix(np.zeros(2), 0.0, np.array([1.0, -3.0]), np.array([0.75, 0.25]))
    assert (pred.aggregate, pred.label) == (0.0, 1)  # sign(0) is +1
    assert pred.cache is None
    rec = RoundRecord.of(3, pred, -1.0, np.zeros(2), branch=["skip", "skip"])
    assert (rec.t, rec.label, rec.truth, rec.mistake, rec.aggregate) == (3, 1, -1, True, 0.0)
    assert type(rec.truth) is int and rec.per_kernel is pred.per_kernel and rec.branch == ["skip", "skip"]


def test_check_features():
    x, xsq = check_features([3, 4], 2)
    assert x.dtype == float and x.shape == (2,) and xsq == 25.0
    with pytest.raises(ValueError, match="shape"):
        check_features([[3, 4]], 2)
    # x @ x overflows: numpy's warning, raised as an error, must not escape in place of ValueError
    with pytest.raises(ValueError, match="overflows"):
        check_features([1e200, 1e200], 2)


@pytest.mark.parametrize("name", LEARNERS)
def test_overflowing_features_raise_value_error_when_warnings_are_errors(name):
    # pyproject.toml makes every RuntimeWarning an error for the whole suite
    with pytest.raises(ValueError, match="overflows"):
        LEARNERS[name]().predict(BAD_X["overflow"])


# The rejection property: small budgets so that removals fire, and a polynomial(40)
# kernel beside the Gaussian one in the selectors' grid (the raker takes Gaussians only).
POLY_GRID = (gaussian(1.0, 0), polynomial(40.0, 1))
SMALL_LEARNERS = {
    "momd_h": lambda: HingeKernelSelector(HingeSelectorConfig(
        kernels=POLY_GRID, dim=2, budget=12, horizon=60, reservoir_size=2, seed=5)),  # buffers of 2
    # U = 10 lets f(x) pass the loss cap; at lambda_scale 1 instead of 0.9 a sampled step's norm
    # change overflows (the xfail test of the smooth learner's input validation)
    "momd_s": lambda: SmoothKernelSelector(SmoothSelectorConfig(
        kernels=POLY_GRID, dim=2, budget=2, ball_radius=10.0, lambda_scale=0.9, seed=6)),
    "raker": lambda: RakerBaseline(RakerConfig(kernels=POLY_GRID[:1], dim=2, num_features=8, step_size=0.5, seed=7)),
}
ROW_KINDS = {
    "ordinary": lambda a, b: np.array([a, b]),
    "zero": lambda a, b: np.zeros(2),
    "nan": lambda a, b: np.array([a, np.nan]),
    "huge": lambda a, b: np.array([1e200, b]),
    "wrong shape": lambda a, b: np.array([a, b, 0.0]),
    # k(x, x) = 1e306 under polynomial(40): a selector's loss can pass the cap Hedge accepts
    "past the loss cap": lambda a, b: np.array([10.0 ** (306 / 80), 0.0]),
}
ROUNDS = st.lists(st.tuples(
    st.sampled_from([*ROW_KINDS, "duplicate"]), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
    st.integers(0, 59), st.sampled_from([-1, 1]),
), min_size=20, max_size=60)


@pytest.mark.parametrize("name", SMALL_LEARNERS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(rounds=ROUNDS)
def test_a_round_either_keeps_the_invariants_or_changes_nothing(name, rounds):
    """Every update returns a record after which the invariants hold, or raises
    ValueError or FloatingPointError and leaves the learner as it was."""
    learner = SMALL_LEARNERS[name]()
    offered = []
    for kind, a, b, back, y in rounds:
        if kind == "duplicate" and offered:
            x = offered[back % len(offered)].copy()  # an earlier row exactly, as a fresh array
        else:  # the first round has no row to repeat: an ordinary one
            x = ROW_KINDS.get(kind, ROW_KINDS["ordinary"])(a, b)
        offered.append(x)
        before = state_digest(learner)
        try:
            rec = learner.update(x, y)
        except (ValueError, FloatingPointError) as exc:
            event(f"rejected: {type(exc).__name__}: {str(exc)[:30]}")
            assert state_digest(learner) == before
        else:
            assert isinstance(rec, RoundRecord)
            if rec.removed is not None and rec.removed.any():
                event("removal")
            if name != "raker":  # the baseline has no budget or ball to check
                learner.check_invariants()


@pytest.mark.parametrize("warning_filter", ["error", "default"])
@pytest.mark.parametrize("name", ["momd_h", "momd_s"])
def test_an_x_whose_self_similarity_overflows_is_rejected_before_any_state_changes(name, warning_filter, monkeypatch):
    # x @ x = 1e8, so k(x, x) = 1e320 under polynomial(40), while x's inner products with
    # the stored rows, all near e2, stay below 1e4 and keep the kernel rows finite
    learner = SMALL_LEARNERS[name]()
    rng = np.random.default_rng(3)
    for _ in range(30):
        x = np.array([0.1 * rng.normal(), rng.normal()])
        learner.update(x, 1 if x[1] > 0 else -1)
    bad = np.array([1e4, 0.0])
    with monkeypatch.context() as m:  # the round as it would run without the check
        m.setattr(sys.modules[type(learner).__module__], "check_self_values", lambda grid, x_sqnorm: None)
        pred = copy.deepcopy(learner).predict(bad)
    y = -pred.label  # a mistake, so the derivative that scales momd_s's Hedge losses is not 0
    if name == "momd_h":
        losses = np.maximum(1.0 - y * pred.per_kernel, 0.0)
    else:
        losses = pea_losses(pred.per_kernel, learner.loss.deriv(pred.aggregate, y))
    assert np.isfinite(losses).all() and losses.any()  # charging Hedge would change its state
    before = state_digest(learner)
    # [1e10, 0] also overflows its inner products with the stored rows under polynomial(40)
    calls = (lambda: learner.predict(bad), lambda: learner.update(bad, y), lambda: learner.update(1e6 * bad, y))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(warning_filter)
        for call in calls:
            with pytest.raises(ValueError, match="self-similarity"):
                call()
    assert not caught  # numpy's overflow warning is never met
    assert state_digest(learner) == before and learner.t == 30


def _modules():
    yield okselect
    for info in pkgutil.iter_modules(okselect.__path__):
        if info.name != "__main__":  # importing it runs the command line
            yield importlib.import_module(f"okselect.{info.name}")


@pytest.mark.parametrize("module", list(_modules()), ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"
