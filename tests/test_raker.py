import math

import numpy as np
import pytest

from okselect import HingeLoss, RakerBaseline, RakerConfig, gaussian, polynomial, run_stream
from okselect.kernels import kernel_eval

from conftest import blob_stream
from test_golden import GRID, RAKER_CASES

pytestmark = pytest.mark.bits


def sin_cos_features(model, x) -> np.ndarray:
    """The feature map from numpy's ``sin`` and ``cos``: the reference for ``RakerBaseline.features``.

    Its angles are theta = 2 t, t the half angles from the shared draw and
    the half inverse widths, so both maps take the same t.
    """
    D = model.config.num_features
    theta = 2.0 * (model.half_inv_widths * (model.base @ np.asarray(x, dtype=float)))
    z = np.empty((len(theta), 2 * D))
    np.sin(theta, out=z[:, 0::2])
    np.cos(theta, out=z[:, 1::2])
    z /= math.sqrt(D)
    return z


class SinCosRaker(RakerBaseline):
    def features(self, x):
        return sin_cos_features(self, x)


def hard_arguments() -> np.ndarray:
    """Projections from 0 to 1e300 in magnitude, both signed zeros and the neighbours of k pi/2."""
    quarter = np.arange(1, 2001) * (math.pi / 2)
    pos = np.concatenate([
        np.logspace(-300, 300, 6001),
        quarter, np.nextafter(quarter, 0.0), np.nextafter(quarter, np.inf),
        [1e15, 2.0**52, 2.0**53, 1e20, 1e100],
    ])
    return np.concatenate([[0.0, -0.0], pos, -pos])


def make_model(**kw):
    base = dict(kernels=GRID, dim=4, num_features=64, step_size=0.1, seed=0)
    base.update(kw)
    return RakerBaseline(RakerConfig(**base))


def test_feature_norm_is_exactly_one():
    model = make_model()
    rng = np.random.default_rng(40)
    for _ in range(50):
        z = model.features(rng.normal(size=4))[2]
        assert z @ z == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("sigma", [1.0, 0.5])
def test_features_match_sin_cos(sigma):
    # every projection is set directly: one input coordinate of 1.0 and the arguments as the draw, one row each.
    # At sigma = 1 the half angles are exactly half the arguments, so every hard argument is a theta; at
    # sigma = 0.5 they are the arguments themselves, so tan meets the neighbours of its poles
    args = hard_arguments()
    model = RakerBaseline(RakerConfig(kernels=(gaussian(sigma),), dim=1, num_features=len(args)))
    model.base = args[:, None]
    x = np.array([1.0])
    z, ref = model.features(x), sin_cos_features(model, x)
    assert np.abs(z - ref).max() <= 4.5e-16


@pytest.mark.parametrize("name", sorted(RAKER_CASES))
def test_same_labels_as_sin_cos_features(name):
    (X, y), kw = RAKER_CASES[name]
    runs = []
    for cls in (RakerBaseline, SinCosRaker):
        model = cls(RakerConfig(kernels=GRID, dim=X.shape[1], **kw))
        labels, aggregates = [], []
        run_stream(model, X, y, lambda rec: (labels.append(rec.label), aggregates.append(rec.aggregate)))
        runs.append((labels, np.array(aggregates), model.theta))
    (labels, agg, theta), (ref_labels, ref_agg, ref_theta) = runs
    assert labels == ref_labels
    assert np.abs(agg - ref_agg).max() <= 1e-12
    assert np.abs(theta - ref_theta).max() <= 1e-12


def test_each_kernel_row_is_a_one_kernel_rakers_features():
    # the grid shares one draw, so kernel i's row is what a raker of kernel i alone computes, bit for bit
    model = make_model(num_features=100, seed=7)
    singles = [make_model(kernels=(spec,), num_features=100, seed=7) for spec in GRID]
    rng = np.random.default_rng(45)
    for _ in range(20):
        x = rng.normal(size=4)
        z = model.features(x)
        for i, single in enumerate(singles):
            assert np.array_equal(z[i], single.features(x)[0])


def test_kernels_of_equal_width_share_their_features_and_weights():
    kernels = (gaussian(2.0, 0), gaussian(0.5, 1), gaussian(2.0, 2))
    model = make_model(kernels=kernels, seed=6)
    X, y = blob_stream(300, 4, seed=46)
    for x in X:
        z = model.features(x)
        assert np.array_equal(z[0], z[2]) and not np.array_equal(z[0], z[1])
    run_stream(model, X, y)
    assert np.array_equal(model.theta[0], model.theta[2])
    assert not np.array_equal(model.theta[0], model.theta[1])


def test_feature_inner_product_at_identical_points():
    model = make_model()
    x = np.array([0.4, -0.2, 0.0, 1.0])
    for i in range(len(GRID)):
        z = model.features(x)[i]
        assert z @ z == pytest.approx(1.0, abs=1e-15)


def test_bochner_monte_carlo():
    # E over frequency redraws of <z(x), z(x')> approximates the kernel
    x = np.array([0.3, -0.5, 0.2, 0.0])
    xp = np.array([-0.1, 0.4, 0.0, 0.3])
    spec = gaussian(1.0, 0)
    vals = []
    for seed in range(200):
        model = RakerBaseline(
            RakerConfig(kernels=(spec,), dim=4, num_features=128, step_size=0.1, seed=seed)
        )
        vals.append(float(model.features(x)[0] @ model.features(xp)[0]))
    vals = np.array(vals)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - kernel_eval(spec, x, xp)) <= 3 * se


def test_zero_step_size_freezes_weights():
    model = make_model(step_size=0.0)
    rng = np.random.default_rng(41)
    theta0 = [t.copy() for t in model.theta]
    for _ in range(20):
        x = rng.normal(size=4)
        model.predict(x)
        model.update(x, int(rng.choice([-1, 1])))
    for before, after in zip(theta0, model.theta):
        assert np.array_equal(before, after)


def test_single_hinge_step_from_zero():
    model = make_model(kernels=(gaussian(1.0, 0),), step_size=0.05)
    x = np.array([1.0, 0.0, 0.5, 0.0])
    model.predict(x)
    z = model.features(x)[0]
    model.update(x, 1)
    # theta was 0: prediction 0, margin violated, ridge term vanishes
    assert np.allclose(model.theta[0], 0.05 * 1.0 * z)


def test_separable_stream_low_mistake_rate():
    X, y = blob_stream(2000, 4, seed=42)
    model = make_model(step_size=1.0 / math.sqrt(2000) * 10, num_features=200, seed=2)
    mistakes, _ = run_stream(model, X, y)
    assert 100.0 * mistakes / 2000 <= 5.0


def test_mixture_weights_simplex_and_ordering():
    X, y = blob_stream(500, 4, seed=43)
    model = make_model(seed=3)
    cum_loss = np.zeros(len(model.config.kernels))

    def check(rec):
        cum_loss[:] += rec.losses
        w = model.mixture_weights()
        assert abs(w.sum() - 1.0) <= 1e-12
        assert w.min() >= 0.0
        if len(np.flatnonzero(cum_loss == cum_loss.min())) == 1:
            assert w.argmax() == cum_loss.argmin()

    run_stream(model, X, y, check)


def test_seeded_reproducibility():
    X, y = blob_stream(300, 4, seed=44)
    outs = []
    for _ in range(2):
        model = make_model(seed=5)
        labels = []
        run_stream(model, X, y, lambda rec: labels.append(rec.label))
        outs.append((labels, [t.copy() for t in model.theta]))
    assert outs[0][0] == outs[1][0]
    for a, b in zip(outs[0][1], outs[1][1]):
        assert np.array_equal(a, b)


def test_non_gaussian_kernels_rejected():
    with pytest.raises(ValueError):
        RakerConfig(kernels=(polynomial(2, 0),), dim=3)


def test_loss_object_is_used():
    model = make_model(loss=HingeLoss())
    x = np.array([1.0, 0.0, 0.0, 0.0])
    model.predict(x)
    out = model.update(x, 1)
    assert out.losses.shape == (5,)
    assert np.all(out.losses >= 0)


@pytest.mark.parametrize(
    "field, value",
    [("step_size", math.nan), ("step_size", -1.0), ("step_size", math.inf),
     ("reg", math.nan), ("reg", -0.5), ("reg", math.inf)],
)
def test_bad_step_size_or_reg_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        RakerConfig(kernels=GRID, dim=4, **{field: value})
    cfg = RakerConfig(kernels=GRID, dim=4, step_size=0.0, reg=0.0)  # a frozen model is a valid one
    assert cfg.step_size == 0.0 and cfg.reg == 0.0
