"""Every documented constructor and input check raises its documented error."""

import math
import warnings

import numpy as np
import pytest

import okselect.bench
from okselect import (
    ExampleStore,
    ExperimentConfig,
    HedgeState,
    HingeKernelSelector,
    HingeSelectorConfig,
    KernelSpec,
    RakerBaseline,
    RakerConfig,
    Reservoir,
    SelectorConfig,
    SmoothKernelSelector,
    SmoothSelectorConfig,
    gaussian,
    gen_lowerbound,
    parse_libsvm,
    polynomial,
)
from okselect.bench import ConfigError
from okselect.data import LibsvmFormatError

from conftest import state_digest

GRID = (gaussian(1.0, 0),)


def reservoir(capacity, archive_cap):
    return Reservoir(ExampleStore(2, capacity=8), capacity, archive_cap, np.random.default_rng(0))


def release_twice():
    """Release a slot whose one reference was already released."""
    store = ExampleStore(2, capacity=2)
    slot = store.add(np.zeros(2), 1, 0.0)
    store.release(slot)
    store.release(slot)


def libsvm_file(tmp_path, content):
    path = tmp_path / "ds.txt"
    path.write_text(content, encoding="utf-8")
    return path


CHECKS = {
    "selector-no-kernels": (lambda tmp: SelectorConfig(kernels=(), dim=2, budget=10),
                            ValueError, "need at least one kernel"),
    "selector-bad-removal": (lambda tmp: SelectorConfig(kernels=GRID, dim=2, budget=10, removal="halve"),
                             ValueError, "removal must be 'half' or 'restart'"),
    "selector-budget-0": (lambda tmp: SelectorConfig(kernels=GRID, dim=2, budget=0),
                          ValueError, "budget must be >= 1"),
    # lambda_scale * U / sqrt(B) past the float range: ValueError; an int that a float cannot hold is no count or number
    "hinge-rate-inf": (lambda tmp: HingeSelectorConfig(kernels=GRID, dim=1, budget=40, horizon=100, ball_radius=1e200,
                                                       lambda_scale=1e200),
                       ValueError, "learning rate .* must be finite, got inf"),
    "hinge-budget-past-float-range": (lambda tmp: HingeSelectorConfig(kernels=GRID, dim=1, budget=10**400, horizon=100),
                                      ValueError, "budget must be >= 1 and an integer within the float range"),
    "smooth-rate-inf": (lambda tmp: SmoothSelectorConfig(kernels=GRID, dim=1, budget=4, ball_radius=1e200,
                                                         lambda_scale=1e200),
                        ValueError, "learning rate .* must be finite, got inf"),
    "smooth-budget-past-float-range": (lambda tmp: SmoothSelectorConfig(kernels=GRID, dim=1, budget=10**400),
                                       ValueError, "budget must be >= 1 and an integer within the float range"),
    "smooth-radius-past-float-range": (lambda tmp: SmoothSelectorConfig(kernels=GRID, dim=1, budget=4,
                                                                        ball_radius=10**400),
                                       ValueError, "ball_radius must be finite and > 0"),
    "hinge-reservoir-size-0": (lambda tmp: HingeSelectorConfig(kernels=GRID, dim=2, budget=40, horizon=100,
                                                               reservoir_size=0),
                               ValueError, "reservoir size must be >= 1"),
    "hinge-horizon-0": (lambda tmp: HingeSelectorConfig(kernels=GRID, dim=2, budget=40, horizon=0),
                        ValueError, "horizon must be >= 1"),
    "raker-no-kernels": (lambda tmp: RakerConfig(kernels=(), dim=2), ValueError, "need at least one kernel"),
    "raker-num-features-0": (lambda tmp: RakerConfig(kernels=GRID, dim=2, num_features=0),
                             ValueError, "need at least one random feature"),
    "reservoir-capacity-0": (lambda tmp: reservoir(0, 4), ValueError, "reservoir capacity must be >= 1"),
    "reservoir-archive-cap-0": (lambda tmp: reservoir(2, 0), ValueError, "archive cap must be >= 1"),
    "store-dim-0": (lambda tmp: ExampleStore(0), ValueError, "feature dimension must be >= 1"),
    "store-capacity-0": (lambda tmp: ExampleStore(2, capacity=0), ValueError, "store capacity must be >= 1"),
    "store-add-wrong-shape": (lambda tmp: ExampleStore(2).add(np.zeros(3), 1, 0.0),
                              ValueError, r"expected a \(2,\) vector, got \(3,\)"),
    "store-incref-free-slot": (lambda tmp: ExampleStore(2).incref(0), KeyError, "slot 0 holds no example"),
    "store-release-freed-slot": (lambda tmp: release_twice(), KeyError, "slot 0 holds no example"),
    "hedge-no-experts": (lambda tmp: HedgeState(0), ValueError, "need at least one expert"),
    "lowerbound-budget-0": (lambda tmp: gen_lowerbound(budget=0, rounds=10, seed=0),
                            ValueError, "budget must be >= 1"),
    "libsvm-bad-label": (lambda tmp: parse_libsvm(libsvm_file(tmp, "+1 1:0.5\nyes 2:0.5\n")),
                         LibsvmFormatError, r"ds.txt:2: bad label 'yes'"),
    "libsvm-empty": (lambda tmp: parse_libsvm(libsvm_file(tmp, "")), LibsvmFormatError, "empty dataset"),
}


@pytest.mark.parametrize("case", list(CHECKS))
def test_check_raises_its_documented_error(tmp_path, case):
    build, error, message = CHECKS[case]
    with pytest.raises(error, match=message):
        build(tmp_path)


COUNT = "must be >= {} and an integer within the float range"

# A count is an int >= 1 (a seed >= 0) that a float can hold, and a number is finite; a bool is neither.
# Each value below once built a config (or a stream) or raised something other than ValueError.
NOT_A_COUNT_OR_NUMBER = {
    "smooth-budget-4.5": (lambda: SmoothSelectorConfig(kernels=GRID, dim=2, budget=4.5), "budget " + COUNT.format(1)),
    "hinge-budget-40.0": (lambda: HingeSelectorConfig(kernels=GRID, dim=2, budget=40.0, horizon=100),
                          "budget " + COUNT.format(1)),
    "hinge-dim-2.5": (lambda: HingeSelectorConfig(kernels=GRID, dim=2.5, budget=40, horizon=100),
                      "dim " + COUNT.format(1)),
    "raker-dim-2.5": (lambda: RakerConfig(kernels=GRID, dim=2.5), "dim " + COUNT.format(1)),
    "hinge-reservoir-size-2.5": (lambda: HingeSelectorConfig(kernels=GRID, dim=2, budget=40, horizon=100,
                                                             reservoir_size=2.5),
                                 "reservoir size " + COUNT.format(1)),
    "hinge-horizon-2.5": (lambda: HingeSelectorConfig(kernels=GRID, dim=2, budget=40, horizon=2.5),
                          "horizon " + COUNT.format(1)),
    "raker-num-features-2.5": (lambda: RakerConfig(kernels=GRID, dim=2, num_features=2.5),
                               "need at least one random feature, so num_features " + COUNT.format(1)),
    "raker-step-size-past-float-range": (lambda: RakerConfig(kernels=GRID, dim=2, step_size=10**400),
                                         "step_size must be finite and >= 0"),
    "raker-reg-past-float-range": (lambda: RakerConfig(kernels=GRID, dim=2, reg=10**400), "reg must be finite and >= 0"),
    "smooth-seed-1.5": (lambda: SmoothSelectorConfig(kernels=GRID, dim=2, budget=4, seed=1.5), "seed " + COUNT.format(0)),
    "smooth-seed--1": (lambda: SmoothSelectorConfig(kernels=GRID, dim=2, budget=4, seed=-1), "seed " + COUNT.format(0)),
    "raker-seed-1.5": (lambda: RakerConfig(kernels=GRID, dim=2, seed=1.5), "seed " + COUNT.format(0)),
    "raker-seed--1": (lambda: RakerConfig(kernels=GRID, dim=2, seed=-1), "seed " + COUNT.format(0)),
    "kernel-gaussian-inf": (lambda: KernelSpec("gaussian", math.inf), "kernel parameter must be a finite number > 0"),
    "lowerbound-budget-true": (lambda: gen_lowerbound(budget=True, rounds=10, seed=0), "budget " + COUNT.format(1)),
    "lowerbound-budget-2.5": (lambda: gen_lowerbound(budget=2.5, rounds=10, seed=0), "budget " + COUNT.format(1)),
}


@pytest.mark.parametrize("case", list(NOT_A_COUNT_OR_NUMBER))
def test_a_value_that_is_no_count_or_no_finite_number_is_value_error(case):
    build, message = NOT_A_COUNT_OR_NUMBER[case]
    with pytest.raises(ValueError, match=message):
        build()


PARAM = "kernel parameter must be a finite number > 0"
ENTRY = "kernels must hold KernelSpec entries"

# KernelSpec checks a parameter before converting it, and a config holds KernelSpecs only.
# Each value below once built a spec or a config, or raised OverflowError, AttributeError or TypeError.
NOT_A_KERNEL = {
    "gaussian-past-float-range": (lambda: gaussian(10**400), PARAM),
    "gaussian-numeric-string": (lambda: gaussian("1.0"), PARAM),
    "gaussian-bool": (lambda: gaussian(True), PARAM),
    "polynomial-numeric-string": (lambda: polynomial("2"), PARAM),
    "smooth-string-entry": (lambda: SmoothSelectorConfig(kernels=("gaussian",), dim=2, budget=4), ENTRY),
    "hinge-string-entry": (lambda: HingeSelectorConfig(kernels=(GRID[0], "gaussian"), dim=2, budget=40, horizon=100),
                           ENTRY),
    "raker-tuple-entry": (lambda: RakerConfig(kernels=((1.0,),), dim=2), ENTRY),
    "selector-int-kernels": (lambda: SelectorConfig(kernels=5, dim=2, budget=10), "kernels must be an iterable"),
    "raker-int-kernels": (lambda: RakerConfig(kernels=5, dim=2), "kernels must be an iterable"),
    "raker-empty-generator": (lambda: RakerConfig(kernels=iter(()), dim=2), "need at least one kernel"),
}


@pytest.mark.parametrize("case", list(NOT_A_KERNEL))
def test_a_kernel_that_is_no_spec_is_value_error(case):
    build, message = NOT_A_KERNEL[case]
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("selector, config", [(HingeKernelSelector, HingeSelectorConfig),
                                              (SmoothKernelSelector, SmoothSelectorConfig),
                                              (RakerBaseline, RakerConfig)], ids=["hinge", "smooth", "raker"])
def test_a_kernel_generator_is_kept_as_a_tuple(selector, config):
    """A one-pass iterable of specs is read once, so the config and its learner see every kernel."""
    grid = (gaussian(1.0, 0), gaussian(4.0, 1))
    extra = {HingeSelectorConfig: {"budget": 40, "horizon": 100}, SmoothSelectorConfig: {"budget": 40},
             RakerConfig: {"num_features": 8}}[config]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the smooth learner's radius warning
        built = [selector(config(kernels=k, dim=2, **extra)) for k in (grid, (spec for spec in grid))]
    assert built[1].config.kernels == grid and type(built[1].config.kernels) is tuple
    assert state_digest(built[1]) == state_digest(built[0])
    pred = built[1].predict(np.array([0.5, -0.5]))
    assert pred.per_kernel.shape == (2,)


@pytest.mark.parametrize("selector, config", [(HingeKernelSelector, HingeSelectorConfig),
                                              (SmoothKernelSelector, SmoothSelectorConfig)], ids=["hinge", "smooth"])
def test_a_numpy_int_budget_builds_the_same_learner(selector, config):
    extra = {"horizon": 100} if config is HingeSelectorConfig else {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the smooth learner's radius warning
        built = [selector(config(kernels=GRID, dim=2, budget=b, **extra)) for b in (40, np.int64(40))]
    assert type(built[1].config.budget) is int
    assert state_digest(built[1]) == state_digest(built[0])


@pytest.mark.parametrize("sigma", [1e-170, 1e154, 1e155], ids=["divisor-0", "divisor-overflows", "square-overflows"])
def test_a_gaussian_width_whose_constants_break_is_rejected(monkeypatch, sigma):
    """-2 sigma^2 that is 0 or not finite: ValueError from the spec, ConfigError from bench before any dataset is read."""
    with pytest.raises(ValueError, match="kernel parameter must be a Gaussian width whose -2 sigma\\^2 is finite"):
        gaussian(sigma)
    monkeypatch.setattr(okselect.bench, "load_dataset", lambda config: pytest.fail("the dataset was read"))
    with pytest.raises(ConfigError, match=r"kernels\[0\] 'sigma' must be a finite number > 0 that KernelSpec accepts: kernel parameter must be a Gaussian"):
        ExperimentConfig.from_dict({"dataset": "x", "algorithm": "momd_h", "kernels": [{"kind": "gaussian", "sigma": sigma}]})
    gaussian(1e-160)  # its square is subnormal but not 0, and 1 / sigma is finite
