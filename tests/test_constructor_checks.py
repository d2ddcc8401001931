"""Every documented constructor and input check raises its documented error."""

import numpy as np
import pytest

from okselect import (
    ExampleStore,
    HedgeState,
    HingeSelectorConfig,
    RakerConfig,
    Reservoir,
    SelectorConfig,
    SmoothSelectorConfig,
    gaussian,
    gen_lowerbound,
    parse_libsvm,
)
from okselect.data import LibsvmFormatError

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
    # lambda_scale * U / sqrt(B) past the float range, or an int that a float cannot hold: ValueError, not OverflowError
    "hinge-rate-inf": (lambda tmp: HingeSelectorConfig(kernels=GRID, dim=1, budget=40, horizon=100, ball_radius=1e200,
                                                       lambda_scale=1e200),
                       ValueError, "learning rate .* must be finite, got inf"),
    "hinge-budget-past-float-range": (lambda tmp: HingeSelectorConfig(kernels=GRID, dim=1, budget=10**400, horizon=100),
                                      ValueError, "learning rate .* must be finite, got inf"),
    "smooth-rate-inf": (lambda tmp: SmoothSelectorConfig(kernels=GRID, dim=1, budget=4, ball_radius=1e200,
                                                         lambda_scale=1e200),
                        ValueError, "learning rate .* must be finite, got inf"),
    "smooth-budget-past-float-range": (lambda tmp: SmoothSelectorConfig(kernels=GRID, dim=1, budget=10**400),
                                       ValueError, "learning rate .* must be finite, got inf"),
    "smooth-radius-past-float-range": (lambda tmp: SmoothSelectorConfig(kernels=GRID, dim=1, budget=4,
                                                                        ball_radius=10**400),
                                       ValueError, "learning rate .* must be finite, got inf"),
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
