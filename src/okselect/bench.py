"""Experiment runner: configure a learner, stream a dataset, collect
metrics, repeat over seeded permutations, and emit a CSV report.

The online protocol is predict-then-update: the mistake rate counts the
sign of the pre-update prediction against the revealed label. Repeats are
independent given their seeds; repeat r permutes the dataset with
seed + r and seeds the learner identically, so a report is reproducible
from its config alone.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import time
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from . import data as data_mod
from .hinge_learner import HingeKernelSelector, HingeSelectorConfig
from .kernels import KernelSpec, _count, _is_finite, gaussian, polynomial
from .losses import HingeLoss, LogisticLoss
from .protocol import learning_rate, run_stream
from .raker import RakerBaseline, RakerConfig
from .smooth_learner import SmoothKernelSelector, SmoothSelectorConfig

__all__ = ["ExperimentConfig", "Report", "run", "sweep", "load_dataset",
           "REPORT_COLUMNS", "ConfigError"]

DEFAULT_SIGMAS = (0.25, 1.0, 4.0, 16.0, 64.0)  # 2^{-2}, 2^0, ..., 2^6

REPORT_COLUMNS = [
    "dataset",
    "T",
    "algorithm",
    "loss",
    "B",
    "M",
    "U",
    "lambda_scale",
    "seed",
    "AMR_percent",
    "cum_loss",
    "alignment_proxy_min",
    "removals_per_kernel",
    "archive_size",
    "wall_time_s",
    "config",
]


# The metric cells of a report row. The last three come from the learner's
# summary(); a cell that no one fills is written empty.
_METRIC_COLUMNS = ("AMR_percent", "cum_loss", "wall_time_s", "alignment_proxy_min",
                   "removals_per_kernel", "archive_size")


class ConfigError(ValueError):
    pass


# Each kernel kind of a ``kernels`` entry: its constructor and its one parameter.
_KERNEL_KINDS = {"gaussian": (gaussian, "sigma"), "polynomial": (polynomial, "degree")}


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment.

    ``dataset`` is a file path or a generator spec such as
    ``{"generator": "lowerbound", "budget": 50, "rounds": 20000, "seed": 1}``;
    a file's features are min-max normalized onto [0, 1].
    ``U`` is either the string ``"sqrt_b"`` or an explicit radius, with a
    finite learning rate lambda_scale * U / sqrt(B); ``B``,
    ``M``, ``D`` and ``repeats`` integers >= 1 and ``seed`` an integer
    >= 0, each within the float range; ``lambda_scale`` a finite
    number > 0; ``eta`` null (1/sqrt(T)) or a finite number >= 0;
    ``reg`` a finite number >= 0 and ``output`` a file path or null, by
    the rule the library configs apply. Any other value raises
    ConfigError, before a dataset is read.
    ``kernels`` is the kernel grid, by default the Gaussian grid with the
    widths ``DEFAULT_SIGMAS``. It is a non-empty list of specs, e.g.
    ``[{"kind": "polynomial", "degree": 1}]``: each entry holds ``kind``
    and that kind's one parameter (``sigma`` or ``degree``), a number that
    :class:`KernelSpec` accepts, and nothing else, or the config raises ConfigError.
    Settings that pass these checks but from which the learner cannot be
    built (a budget too small for the kernels, a raker over non-Gaussian
    kernels) raise ConfigError in :func:`run`, before the first repeat.
    """

    dataset: object
    algorithm: str  # momd_h | momd_s | raker
    loss: str = "hinge"
    B: int = 400
    M: int = 10
    U: object = "sqrt_b"
    lambda_scale: float = 1.0
    D: int = 400
    eta: float | None = None  # raker step size; defaults to 1/sqrt(T)
    reg: float = 0.005
    repeats: int = 10
    seed: int = 0
    removal: str = "half"
    kernels: object = None
    output: str | None = None

    def __post_init__(self):
        if not isinstance(self.dataset, (str, os.PathLike, dict)):
            raise ConfigError(f"dataset must be a file path or a generator spec, got {self.dataset!r}")
        if self.algorithm not in ("momd_h", "momd_s", "raker"):
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.loss not in ("hinge", "logistic"):
            raise ConfigError(f"unknown loss {self.loss!r}")
        if self.algorithm == "momd_h" and self.loss != "hinge":
            raise ConfigError("the per-kernel-buffer learner is defined for the hinge loss")
        if self.algorithm == "momd_s" and self.loss == "hinge":
            raise ConfigError("the shared-buffer learner needs a smooth loss (logistic)")
        if self.output is not None and not isinstance(self.output, (str, os.PathLike)):
            raise ConfigError(f"output must be a file path or null, got {self.output!r}")
        if not (_is_finite(self.lambda_scale) and self.lambda_scale > 0):
            raise ConfigError(f"lambda_scale must be a finite number > 0, got {self.lambda_scale!r}")
        if self.removal not in ("half", "restart"):
            raise ConfigError(f"removal must be 'half' or 'restart', got {self.removal!r}")
        if self.eta is not None and not (_is_finite(self.eta) and self.eta >= 0):
            raise ConfigError(f"eta must be null or a finite number >= 0, got {self.eta!r}")
        if not (_is_finite(self.reg) and self.reg >= 0):
            raise ConfigError(f"reg must be a finite number >= 0, got {self.reg!r}")
        self.kernel_specs()  # checks every entry
        if self.U != "sqrt_b" and not (_is_finite(self.U) and self.U > 0):
            raise ConfigError(f"U must be 'sqrt_b' or a finite positive radius, got {self.U!r}")
        for name, minimum in (("B", 1), ("M", 1), ("D", 1), ("repeats", 1), ("seed", 0)):
            _count(getattr(self, name), name, minimum, error=ConfigError)
        if self.U != "sqrt_b" and not _is_finite(learning_rate(self.lambda_scale, self.U, self.B)):
            raise ConfigError(f"lambda_scale * U / sqrt(B) overflows: {self.lambda_scale!r} * {self.U!r} / sqrt({self.B})")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"a config must be a JSON object, got {raw!r}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "dataset" not in raw or "algorithm" not in raw:
            raise ConfigError("config requires 'dataset' and 'algorithm'")
        return cls(**raw)

    def kernel_specs(self) -> tuple[KernelSpec, ...]:
        """The grid's specs; ConfigError unless every ``kernels`` entry is {"kind": kind, param: number} that builds one."""
        if self.kernels is None:
            return tuple(gaussian(s, index=i) for i, s in enumerate(DEFAULT_SIGMAS))
        if not (isinstance(self.kernels, (list, tuple)) and self.kernels):
            raise ConfigError(f"kernels must be a non-empty list of kernel entries, got {self.kernels!r}")
        specs = []
        for i, item in enumerate(self.kernels):
            if not isinstance(item, dict):
                raise ConfigError(f"kernels[{i}] must be an object, got {item!r}")
            kind = item.get("kind")
            if not isinstance(kind, str) or kind not in _KERNEL_KINDS:
                raise ConfigError(f"kernels[{i}] has unknown kind {kind!r}; expected one of {sorted(_KERNEL_KINDS)}")
            make, param = _KERNEL_KINDS[kind]
            if set(item) != {"kind", param}:
                raise ConfigError(f"kernels[{i}] of kind {kind!r} takes exactly the keys "
                                  f"'kind' and {param!r}, got {list(item)}")
            try:
                specs.append(make(item[param], index=i))  # KernelSpec checks the value itself
            except ValueError as exc:
                raise ConfigError(f"kernels[{i}] {param!r} must be a finite number > 0 that KernelSpec accepts: {exc}") from None
        return tuple(specs)

    def radius(self) -> float | None:
        if self.U == "sqrt_b":
            return None  # learners default to sqrt(B)
        return float(self.U)

    def loss_object(self):
        return HingeLoss() if self.loss == "hinge" else LogisticLoss()


@dataclass
class Report:
    """Per-repeat rows plus mean/std aggregates over the numeric columns."""

    rows: list = field(default_factory=list)

    NUMERIC = ["AMR_percent", "cum_loss", "alignment_proxy_min", "archive_size", "wall_time_s"]

    def formatted_rows(self) -> list[dict]:
        return [_format_row(r) for r in self.rows]

    def aggregates(self) -> tuple[dict, dict]:
        """Mean and sample std recomputed from the *formatted* per-repeat
        cells, so an independent parse of the CSV reproduces them."""
        rows = self.formatted_rows()
        mean_row = {c: "" for c in REPORT_COLUMNS}
        std_row = {c: "" for c in REPORT_COLUMNS}
        mean_row["seed"] = "mean"
        std_row["seed"] = "std"
        for col in self.NUMERIC:
            vals = [float(r[col]) for r in rows if r[col] != ""]
            if not vals:
                continue
            mean_row[col] = _fmt(float(np.mean(vals)))
            std_row[col] = _fmt(float(np.std(vals, ddof=1))) if len(vals) > 1 else _fmt(0.0)
        return mean_row, std_row

    def to_csv(self, path):
        mean_row, std_row = self.aggregates()
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(REPORT_COLUMNS)
            for row in self.formatted_rows() + [mean_row, std_row]:
                writer.writerow([row[c] for c in REPORT_COLUMNS])

    def mean(self, col: str) -> float:
        mean_row, _ = self.aggregates()
        if mean_row[col] == "":
            raise ValueError(f"no successful repeats to aggregate for {col!r}")
        return float(mean_row[col])


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def _format_row(row: dict) -> dict:
    out = {}
    for c in REPORT_COLUMNS:
        v = row.get(c, "")
        out[c] = _fmt(v)
    return out


def load_dataset(config: ExperimentConfig) -> data_mod.Dataset:
    spec = config.dataset
    if isinstance(spec, dict):
        if spec.get("generator") != "lowerbound":
            raise ConfigError(f"unknown generator {spec.get('generator')!r}")
        args = {"seed": 0, **spec}
        del args["generator"]
        if set(args) != {"budget", "rounds", "seed"}:
            raise ConfigError(f"the lowerbound generator takes budget, rounds and seed, got {sorted(spec)}")
        try:
            return data_mod.gen_lowerbound(**args)
        except ValueError as exc:
            raise ConfigError(f"generator spec: {exc}") from exc
    try:
        ds = data_mod.parse_libsvm(spec)
    except OSError as exc:
        raise ConfigError(f"cannot read dataset {spec!r}: {exc}") from exc
    return data_mod.normalize_minmax(ds)


_LEARNERS = {"momd_h": HingeKernelSelector, "momd_s": SmoothKernelSelector, "raker": RakerBaseline}


def _learner_config(config: ExperimentConfig, ds, seed: int):
    """The configured learner's own config for ``ds``; ConfigError when it cannot be built."""
    specs = config.kernel_specs()
    try:
        if config.algorithm == "raker":
            eta = config.eta if config.eta is not None else 1.0 / math.sqrt(ds.num_examples)
            return RakerConfig(
                kernels=specs, dim=ds.dim, num_features=config.D, step_size=eta, reg=config.reg,
                loss=config.loss_object(), seed=seed,
            )
        shared = dict(
            kernels=specs, dim=ds.dim, budget=config.B, ball_radius=config.radius(),
            lambda_scale=config.lambda_scale, removal=config.removal, seed=seed,
        )
        if config.algorithm == "momd_h":
            return HingeSelectorConfig(**shared, horizon=ds.num_examples, reservoir_size=config.M)
        return SmoothSelectorConfig(**shared, loss=config.loss_object())
    except ValueError as exc:
        raise ConfigError(f"cannot build {config.algorithm}: {exc}") from exc


def run(config: ExperimentConfig) -> Report:
    """Execute the configured repeats and assemble the report.

    The learner's config is built once, before the first repeat, so
    settings it rejects raise ConfigError. A repeat that raises records a
    failure row (empty metric cells and the error in the config echo)
    instead of aborting the whole report.
    """
    base = load_dataset(config)
    # the dataset's size and dimension are what the learner's config reads, and permuting keeps both
    learner_config = _learner_config(config, base, config.seed)
    report = Report()
    echo = json.dumps(asdict(config), default=str, sort_keys=True)
    for r in range(config.repeats):
        seed = config.seed + r
        row = {
            "dataset": base.name,
            "T": base.num_examples,
            "algorithm": config.algorithm,
            "loss": config.loss,
            "B": config.B if config.algorithm == "raker" else learner_config.budget,  # as the learner runs it
            "M": config.M if config.algorithm == "momd_h" else "",
            "U": "" if config.algorithm == "raker" else _fmt(learner_config.radius),
            "lambda_scale": config.lambda_scale,
            "seed": seed,
            "config": echo,
        }
        try:
            ds = data_mod.permute(base, seed)
            learner = _LEARNERS[config.algorithm](replace(learner_config, seed=seed))
            t0 = time.perf_counter()
            mistakes, cum_loss = run_stream(learner, ds.dense_features(), ds.y)
            row["wall_time_s"] = time.perf_counter() - t0
            row["AMR_percent"] = 100.0 * mistakes / ds.num_examples
            row["cum_loss"] = cum_loss
            row.update(learner.summary())
        except Exception as exc:  # noqa: BLE001 - failure rows are part of the contract
            row.update(dict.fromkeys(_METRIC_COLUMNS, ""))
            row["config"] = f"FAILED: {type(exc).__name__}: {exc}"
        report.rows.append(row)
    if config.output:
        report.to_csv(config.output)
    return report


def sweep(config: ExperimentConfig, grid: dict) -> tuple[dict, Report, list]:
    """Explicit hyperparameter sweep: run every combination in ``grid``.

    ``grid`` maps config field names to candidate values, e.g.
    ``{"lambda_scale": [2.0, 1.0, 0.5]}`` or, for the baseline,
    ``{"eta": [...], "reg": [0.05, 0.005, 0.0005]}``. Returns the winning
    overrides (lowest mean AMR), the winning report, and every
    (overrides, report) pair. There is no hidden tuning anywhere else.
    """
    keys = sorted(grid)
    results = []
    best = None
    for values in itertools.product(*(grid[k] for k in keys)):
        overrides = dict(zip(keys, values))
        rep = run(replace(config, **overrides))
        results.append((overrides, rep))
        try:
            amr = rep.mean("AMR_percent")
        except ValueError:
            continue
        if best is None or amr < best[0]:
            best = (amr, overrides, rep)
    if best is None:
        raise ConfigError("every sweep combination failed")
    return best[1], best[2], results

