"""Memory-bounded online kernel selection.

The library keeps a hard cap on stored examples while selecting among K
candidate kernels on a stream: budgeted kernel expansions updated by
(optimistic) mirror descent, a reservoir-sampled gradient guess, adaptive
update sampling with half-buffer removal, and a Hedge mixture over the
kernel grid. A benchmark harness streams datasets, repeats over seeded
permutations, and writes CSV reports.
"""

from .bench import ExperimentConfig, Report, run, sweep
from .data import (
    Dataset,
    gen_lowerbound,
    normalize_minmax,
    parse_libsvm,
    permute,
    serialize_libsvm,
)
from .hedge import HedgeState
from .hinge_learner import (
    BudgetError,
    HingeKernelSelector,
    HingeSelectorConfig,
    allocate_budgets,
)
from .kernels import KernelSpec, feature_distance, gaussian, kernel_eval, polynomial
from .losses import HingeLoss, LogisticLoss
from .protocol import Prediction, RoundRecord, SelectorConfig, run_stream
from .raker import RakerBaseline, RakerConfig
from .reservoir import Reservoir
from .rkhs import ExampleStore, KernelExpansions
from .smooth_learner import SmoothKernelSelector, SmoothSelectorConfig, pea_losses

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "Report",
    "run",
    "sweep",
    "Dataset",
    "parse_libsvm",
    "serialize_libsvm",
    "normalize_minmax",
    "permute",
    "gen_lowerbound",
    "HedgeState",
    "HingeKernelSelector",
    "HingeSelectorConfig",
    "allocate_budgets",
    "BudgetError",
    "KernelSpec",
    "gaussian",
    "polynomial",
    "kernel_eval",
    "feature_distance",
    "HingeLoss",
    "LogisticLoss",
    "RakerBaseline",
    "RakerConfig",
    "Reservoir",
    "ExampleStore",
    "KernelExpansions",
    "SmoothKernelSelector",
    "SmoothSelectorConfig",
    "pea_losses",
    "Prediction",
    "RoundRecord",
    "SelectorConfig",
    "run_stream",
]
