import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import okselect
from okselect import ExperimentConfig, HingeKernelSelector, gaussian, permute, run, run_stream, serialize_libsvm
from okselect.bench import REPORT_COLUMNS, ConfigError, _learner_config, load_dataset
from okselect.cli import main as cli_main
from okselect.data import Dataset, gen_lowerbound

from conftest import blob_stream, dataset_path


def blob_file(tmp_path, T=300, d=4, seed=50, name="blobs.txt"):
    import scipy.sparse as sp

    X, y = blob_stream(T, d, seed=seed)
    ds = Dataset(name="blobs", X=sp.csr_matrix(X), y=y)
    p = tmp_path / name
    serialize_libsvm(ds, p)
    return p


def lowerbound_config_file(tmp_path, **settings):
    """A one-repeat config file for a 30-round lowerbound stream with ``settings``; returns its path."""
    cfg = {"dataset": {"generator": "lowerbound", "budget": 4, "rounds": 30, "seed": 2}, "repeats": 1, **settings}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    return cfg_path


def small_config(tmp_path, **kw):
    base = dict(
        dataset=str(blob_file(tmp_path)),
        algorithm="momd_h",
        loss="hinge",
        B=40,
        M=5,
        repeats=2,
        seed=1,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(dataset="x", algorithm="boosting")

    def test_loss_learner_pairing(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(dataset="x", algorithm="momd_h", loss="logistic")
        with pytest.raises(ConfigError):
            ExperimentConfig(dataset="x", algorithm="momd_s", loss="hinge")

    @pytest.mark.parametrize("raw, match", [
        ({"dataset": 2, "algorithm": "momd_h"}, "dataset must be a file path or a generator spec, got 2"),
        ({"dataset": "x", "algorithm": "momd_h", "loss": "squared"}, "unknown loss 'squared'"),
        ({"algorithm": "momd_h"}, "config requires 'dataset' and 'algorithm'"),
    ], ids=["dataset-type", "loss", "no-dataset"])
    def test_bad_dataset_loss_or_missing_key_rejected(self, raw, match):
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig.from_dict(raw)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict({"dataset": "x", "algorithm": "momd_h", "budget": 4})

    @pytest.mark.parametrize("U", [0, -1.0, math.nan, math.inf, "sqrt_B", True, None])
    def test_bad_radius_rejected(self, U):
        with pytest.raises(ConfigError, match="U must be"):
            ExperimentConfig(dataset="x", algorithm="momd_h", U=U)

    def test_radius_reported_as_configured(self, tmp_path):
        for U, shown in (("sqrt_b", math.sqrt(40)), (2.5, 2.5), (3, 3.0)):
            report = run(small_config(tmp_path, U=U, repeats=1))
            assert float(report.rows[0]["U"]) == pytest.approx(shown, rel=1e-5)
        # the smooth learner floors an odd budget; its row shows the budget and radius it ran with
        with pytest.warns(UserWarning, match="buffer budget 25 is odd"):
            report = run(small_config(tmp_path, algorithm="momd_s", loss="logistic", B=25, repeats=1))
        row = report.formatted_rows()[0]
        assert row["B"] == "24" and float(row["U"]) == pytest.approx(math.sqrt(24), rel=1e-5)

    def test_generator_spec(self):
        cfg = ExperimentConfig(
            dataset={"generator": "lowerbound", "budget": 2, "rounds": 10, "seed": 0},
            algorithm="momd_s",
            loss="logistic",
        )
        ds = load_dataset(cfg)
        assert ds.num_examples == 10 and ds.dim == 6

    @pytest.mark.parametrize("key, value", [("seed", -5), ("seed", 1.5), ("seed", "1"), ("seed", True),
                                            ("output", 7)])
    def test_bad_seed_or_output_is_config_error(self, monkeypatch, key, value):
        """Checked before the dataset is read; an int ``output`` would be opened as a file descriptor."""
        monkeypatch.setattr(okselect.bench, "load_dataset", lambda config: pytest.fail("the dataset was read"))
        with pytest.raises(ConfigError, match=f"{key} must be"):
            run(ExperimentConfig.from_dict({"dataset": "x", "algorithm": "momd_h", key: value}))

    @pytest.mark.parametrize("algorithm, loss", [("momd_h", "hinge"), ("momd_s", "logistic")])
    def test_overflowing_learning_rate_is_config_error(self, monkeypatch, algorithm, loss):
        """lambda_scale * U / sqrt(B) = inf is caught before the dataset is read, not in every repeat."""
        monkeypatch.setattr(okselect.bench, "load_dataset", lambda config: pytest.fail("the dataset was read"))
        raw = {"dataset": "x", "algorithm": algorithm, "loss": loss, "U": 1e308}
        with pytest.raises(ConfigError, match=r"lambda_scale \* U / sqrt\(B\) overflows"):
            run(ExperimentConfig.from_dict({**raw, "lambda_scale": 1e308}))
        assert ExperimentConfig.from_dict({**raw, "lambda_scale": 1.0}).radius() == 1e308  # a finite rate passes

    @pytest.mark.parametrize("key, value, match", [
        ("U", 10**400, "U must be"),
        ("lambda_scale", 10**400, "lambda_scale must be"),
        ("eta", 10**400, "eta must be"),
        ("kernels", [{"kind": "gaussian", "sigma": 10**400}], r"kernels\[0\] 'sigma' must be"),
        ("B", 10**400, "B must be"),
    ], ids=["U", "lambda_scale", "eta", "sigma", "B"])
    def test_int_past_the_float_range_is_config_error(self, monkeypatch, key, value, match):
        """A JSON integer too large for a float is a config error before the dataset is read, not an OverflowError."""
        monkeypatch.setattr(okselect.bench, "load_dataset", lambda config: pytest.fail("the dataset was read"))
        raw = {"dataset": "x", "algorithm": "raker" if key == "eta" else "momd_h", "U": 2.0, key: value}
        with pytest.raises(ConfigError, match=match):
            run(ExperimentConfig.from_dict(raw))

    @pytest.mark.parametrize("algorithm, loss, key", [
        ("momd_h", "hinge", "B"), ("momd_s", "logistic", "B"), ("momd_h", "hinge", "M"), ("raker", "hinge", "D"),
    ], ids=["momd_h-B", "momd_s-B", "M", "D"])
    def test_count_past_the_float_range_is_config_error(self, tmp_path, capsys, monkeypatch, algorithm, loss, key):
        """With the default U, a B, M or D of 10**400 exits 1 before the dataset is read, not 2 in every repeat."""
        monkeypatch.setattr(okselect.bench, "load_dataset", lambda config: pytest.fail("the dataset was read"))
        cfg = lowerbound_config_file(tmp_path, algorithm=algorithm, loss=loss, **{key: 10**400})
        assert cli_main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {key} must be")

    def test_readme_example_config_is_valid(self):
        """The README's example config builds, so every key it names still exists."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```json\n", 1)[1].split("```", 1)[0]
        assert len(ExperimentConfig.from_dict(json.loads(block)).kernel_specs()) == 5


class TestRun:
    def test_near_constant_label_stream_is_learnable(self, tmp_path):
        # labels constant except one round (the parser needs two classes);
        # features track the label, so any learner stays at AMR <= 50%
        lines = ["2 1:0.9"] * 299 + ["1 2:0.9"]
        p = tmp_path / "const.txt"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = ExperimentConfig(dataset=str(p), algorithm="momd_h", B=30, M=3, repeats=1, seed=0)
        report = run(cfg)
        amr = float(report.rows[0]["AMR_percent"])
        assert amr <= 50.0

    def test_windowed_mistakes_non_increasing_on_separable_stream(self, tmp_path):
        cfg = small_config(tmp_path, repeats=1, B=60)
        ds = permute(load_dataset(cfg), cfg.seed)
        learner = HingeKernelSelector(_learner_config(cfg, ds, cfg.seed))
        window = []
        run_stream(learner, ds.dense_features(), ds.y, lambda rec: window.append(rec.mistake))
        half = len(window) // 2
        assert sum(window[half:]) <= sum(window[:half])

    def test_determinism_across_invocations(self, tmp_path):
        cfg = small_config(tmp_path)
        r1 = run(cfg)
        r2 = run(cfg)

        def strip_timing(rows):
            return [{k: v for k, v in r.items() if k != "wall_time_s"} for r in rows]

        assert strip_timing(r1.formatted_rows()) == strip_timing(r2.formatted_rows())

    def test_failure_rows_recorded(self, tmp_path):
        # a step size so large that the raker's weights overflow: every repeat fails but the report survives
        cfg = small_config(tmp_path, algorithm="raker", eta=1e300)
        with np.errstate(over="ignore", invalid="ignore"):
            report = run(cfg)
        assert len(report.rows) == 2
        assert all(str(r["config"]).startswith("FAILED: FloatingPointError") for r in report.rows)

    def test_smooth_and_raker_paths(self, tmp_path):
        for algo, loss in (("momd_s", "logistic"), ("raker", "hinge")):
            cfg = small_config(tmp_path, algorithm=algo, loss=loss, B=20, repeats=1)
            report = run(cfg)
            assert report.rows[0]["AMR_percent"] != ""


class TestReportCsv:
    def test_schema_and_aggregates(self, tmp_path):
        out = tmp_path / "report.csv"
        cfg = small_config(tmp_path, output=str(out), repeats=3)
        report = run(cfg)
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == REPORT_COLUMNS
        body = [r for r in rows if r["seed"] not in ("mean", "std")]
        mean_row = next(r for r in rows if r["seed"] == "mean")
        std_row = next(r for r in rows if r["seed"] == "std")
        assert len(body) == 3
        for col in ("AMR_percent", "cum_loss", "wall_time_s"):
            vals = [float(r[col]) for r in body]
            assert abs(float(mean_row[col]) - float(f"{np.mean(vals):.6g}")) <= 1e-9
            assert abs(float(std_row[col]) - float(f"{np.std(vals, ddof=1):.6g}")) <= 1e-9

    def test_six_significant_digits(self, tmp_path):
        out = tmp_path / "report.csv"
        run(small_config(tmp_path, output=str(out), repeats=1))
        with open(out, newline="", encoding="utf-8") as fh:
            row = list(csv.DictReader(fh))[0]
        for cell in (row["AMR_percent"], row["wall_time_s"]):
            mantissa = cell.replace("-", "").replace(".", "").lstrip("0").split("e")[0]
            assert len(mantissa) <= 6


def test_csv_cells_with_commas_quotes_and_newlines_round_trip(tmp_path):
    from okselect.bench import Report

    dataset, message = 'a,"b"', "FAILED: ValueError: bad x\nat round 3"
    out = tmp_path / "report.csv"
    Report(rows=[{"dataset": dataset, "seed": 1, "config": message}]).to_csv(out)
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["seed"] for r in rows] == ["1", "mean", "std"]
    assert (rows[0]["dataset"], rows[0]["config"]) == (dataset, message)


class TestSweep:
    def test_explicit_grid_returns_best_by_mean_amr(self, tmp_path):
        from okselect.bench import sweep

        cfg = small_config(tmp_path, repeats=2, B=60)
        overrides, best_rep, results = sweep(cfg, {"lambda_scale": [2.0, 1.0, 0.5]})
        assert len(results) == 3
        best_amr = best_rep.mean("AMR_percent")
        for _, rep in results:
            assert best_amr <= rep.mean("AMR_percent")
        assert overrides["lambda_scale"] in (2.0, 1.0, 0.5)

    def test_all_failures_raise(self, tmp_path):
        from okselect.bench import sweep

        cfg = small_config(tmp_path, algorithm="raker", eta=1e300)  # the weights overflow: every repeat fails
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ConfigError, match="every sweep combination failed"):
            sweep(cfg, {"reg": [0.005]})


def test_wall_time_monotone_in_stream_length(tmp_path):
    # smoke-level sanity: a 10x longer stream takes longer for a fixed config
    small = small_config(tmp_path, repeats=1, B=40)
    big_file = blob_file(tmp_path, T=3000, name="big.txt")
    big = small_config(tmp_path, repeats=1, B=40, dataset=str(big_file))
    t_small = float(run(small).rows[0]["wall_time_s"])
    t_big = float(run(big).rows[0]["wall_time_s"])
    assert t_big >= t_small


class TestAlignmentProxy:
    """``run``'s alignment_proxy_min column: the hinge learner's smallest accumulated gap norm."""

    def test_matches_a_learner_played_on_the_permuted_stream(self, tmp_path):
        cfg = small_config(tmp_path, B=400, M=30, repeats=1, seed=2)
        ds = permute(load_dataset(cfg), cfg.seed)
        learner = HingeKernelSelector(_learner_config(cfg, ds, cfg.seed))
        run_stream(learner, ds.dense_features(), ds.y)
        assert run(cfg).rows[0]["alignment_proxy_min"] == float(learner.gap_sums.min())

    def test_single_round_stream(self, tmp_path):
        # one violated round with an empty guess: the proxy equals k(x,x) = 1
        p = tmp_path / "two.txt"
        p.write_text("+1 1:0.5\n-1 2:0.5\n", encoding="utf-8")
        cfg = ExperimentConfig(dataset=str(p), algorithm="momd_h", B=400, M=30, repeats=1, seed=0)
        assert run(cfg).rows[0]["alignment_proxy_min"] >= 1.0  # every kernel pays the first-round gap

    def test_margin_satisfied_stream_stops_accumulating(self, tmp_path):
        # a single example repeated: after the first update the margin holds,
        # so only the first-round gap k(x,x) = 1 remains in the accumulator
        lines = ["+1 1:1.0"] * 200 + ["-1 2:1.0"]
        p = tmp_path / "rep.txt"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = ExperimentConfig(
            dataset=str(p),
            algorithm="momd_h",
            B=400,
            M=30,
            repeats=1,
            seed=0,
            lambda_scale=2.0,
        )
        # the lone negative example adds at most a few gap terms; the
        # repeated positive contributes exactly once per kernel
        assert run(cfg).rows[0]["alignment_proxy_min"] < 10.0


class TestCli:
    def test_datagen_then_inspect(self, tmp_path, capsys):
        out = tmp_path / "lb.txt"
        rc = cli_main(["datagen", "lowerbound", "--budget", "3", "--rounds", "20", "--seed", "1", "--out", str(out)])
        assert rc == 0
        rc = cli_main(["inspect", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "T=20" in printed
        assert "d=9" in printed

    def test_run_subcommand(self, tmp_path, capsys):
        data = blob_file(tmp_path)
        out = tmp_path / "r.csv"
        cfg = {
            "dataset": str(data),
            "algorithm": "momd_s",
            "loss": "logistic",
            "B": 20,
            "repeats": 1,
            "seed": 0,
            "output": str(out),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        rc = cli_main(["run", "--config", str(cfg_path)])
        assert rc == 0
        assert out.exists()
        assert "mean AMR" in capsys.readouterr().out

    def test_run_with_generator_and_kernel_override(self, tmp_path, capsys):
        out = tmp_path / "lb.csv"
        cfg = {
            "dataset": {"generator": "lowerbound", "budget": 4, "rounds": 120, "seed": 2},
            "algorithm": "momd_s",
            "loss": "logistic",
            "kernels": [{"kind": "polynomial", "degree": 1}],
            "B": 6,
            "repeats": 2,
            "seed": 0,
            "output": str(out),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert cli_main(["run", "--config", str(cfg_path)]) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["dataset"].startswith("lowerbound")
        assert rows[0]["T"] == "120"

    def test_missing_dataset_is_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"dataset": "/nonexistent/file", "algorithm": "momd_h"}),
            encoding="utf-8",
        )
        assert cli_main(["run", "--config", str(cfg_path)]) == 1

    @pytest.mark.parametrize("spec", [
        {"generator": "lowerbound", "budget": 5},
        {"generator": "lowerbound", "budget": 5, "rounds": None},
        {"generator": "lowerbound", "budget": 5, "rounds": 30.5},
        {"generator": "lowerbound", "budget": "5", "rounds": 30},
        {"generator": "lowerbound", "budget": 5, "rounds": 30, "seed": [1]},
        {"generator": "lowerbound", "budget": 5, "rounds": 30, "sead": 1},
        {"generator": "blobs", "budget": 5, "rounds": 30},
    ])
    def test_bad_generator_spec_is_config_error(self, tmp_path, capsys, spec):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dataset": spec, "algorithm": "momd_s", "loss": "logistic"}), encoding="utf-8")
        assert cli_main(["run", "--config", str(cfg_path)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("kernels", [
        ["polynomial"],  # an entry that is not an object
        {"kind": "polynomial", "degree": 1},  # not a list of entries
        [{"kind": "laplacian", "sigma": 1.0}],
        [{"degree": 1}],  # no kind
        [{"kind": "polynomial"}],  # missing parameter
        [{"kind": "gaussian", "sigma": 1.0}, {"kind": "gaussian"}],
        [{"kind": "gaussian", "sigma": 1.0, "degree": 2}],  # unknown key
        [{"kind": "polynomial", "degree": 1, "index": 0}],
        [{"kind": "polynomial", "degree": True}],
        [{"kind": "gaussian", "sigma": "1.0"}],
        [{"kind": "gaussian", "sigma": None}],
        [{"kind": "gaussian", "sigma": 0}],
        [{"kind": "polynomial", "degree": -1}],
        [{"kind": "gaussian", "sigma": float("inf")}],
    ])
    def test_bad_kernel_entry_is_config_error(self, tmp_path, capsys, kernels):
        cfg = {
            "dataset": {"generator": "lowerbound", "budget": 4, "rounds": 30, "seed": 2},
            "algorithm": "momd_s", "loss": "logistic", "kernels": kernels, "B": 6, "repeats": 1,
            "output": str(tmp_path / "report.csv"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert cli_main(["run", "--config", str(cfg_path)]) == 1
        assert "config error: kernels" in capsys.readouterr().err
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("key, value", [
        ("B", "40"), ("B", -4), ("B", 0), ("B", 2.5), ("B", True),
        ("horizon", 0), ("horizon", 2.5), ("horizon", -1), ("horizon", "100"), ("horizon", True),
        ("repeats", "2"), ("repeats", 0),
    ])
    def test_bad_budget_or_horizon_is_config_error(self, tmp_path, capsys, key, value):
        """``horizon`` is not a setting: bench runs each dataset's length, so any value is an unknown key."""
        error = "unknown config keys: ['horizon']" if key == "horizon" else None
        self.assert_rejected_setting(tmp_path, capsys, "momd_h", key, value, error)

    @pytest.mark.parametrize("algorithm, key, value", [
        ("momd_h", "M", "10"), ("momd_h", "M", 0), ("momd_h", "lambda_scale", "2"), ("momd_h", "kernels", []),
        ("momd_h", "removal", "halve"),
        ("raker", "D", 0), ("raker", "eta", -1), ("raker", "reg", "x"),
    ])
    def test_bad_learner_setting_is_config_error(self, tmp_path, capsys, algorithm, key, value):
        self.assert_rejected_setting(tmp_path, capsys, algorithm, key, value)

    @staticmethod
    def assert_rejected_setting(tmp_path, capsys, algorithm, key, value, error=None):
        """A 30-round run with ``key: value`` exits 1 with ``config error: <error>`` and writes no report.

        ``error`` defaults to ``<key> must be``.
        """
        settings = {"algorithm": algorithm, "B": 40, "output": str(tmp_path / "report.csv"), key: value}
        assert cli_main(["run", "--config", str(lowerbound_config_file(tmp_path, **settings))]) == 1
        assert f"config error: {error or f'{key} must be'}" in capsys.readouterr().err
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("key, value", [("lambda_rule", "theory"), ("horizon", 100), ("normalize", False),
                                            ("sigmas", [0.5, 2.0])],
                             ids=["lambda_rule", "horizon", "normalize", "sigmas"])
    def test_removed_key_is_config_error(self, tmp_path, capsys, key, value):
        """A config written for a key that the runner no longer has stops before any repeat."""
        self.assert_rejected_setting(tmp_path, capsys, "momd_h", key, value, f"unknown config keys: ['{key}']")

    @pytest.mark.parametrize("algorithm, settings, reason", [
        ("momd_h", {"B": 11}, "leaves per-kernel buffers of size 0"),  # K=5
        ("momd_s", {"loss": "logistic", "B": 1}, "budget must be >= 2"),
        ("raker", {"kernels": [{"kind": "polynomial", "degree": 1}]}, "random Fourier features require Gaussian kernels"),
    ], ids=["momd_h-B11", "momd_s-B1", "raker-polynomial"])
    def test_unbuildable_learner_is_config_error(self, tmp_path, capsys, algorithm, settings, reason):
        """Settings the learner's own config rejects exit 1 before the first repeat, not 2 with a FAILED row per repeat."""
        cfg = {
            "dataset": {"generator": "lowerbound", "budget": 4, "rounds": 30, "seed": 2},
            "algorithm": algorithm, "repeats": 2, "output": str(tmp_path / "report.csv"), **settings,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert cli_main(["run", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot build") and reason in err
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("dataset", [0, 2, True, [1], None], ids=["0", "2", "true", "list", "null"])
    def test_dataset_neither_path_nor_generator_is_config_error(self, tmp_path, dataset):
        # In a child process: an integer taken for a path is a file descriptor, which
        # would read this process's stdin or close its stderr.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dataset": dataset, "algorithm": "momd_h"}), encoding="utf-8")
        src = str(Path(okselect.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "okselect", "run", "--config", str(cfg_path)],
            cwd=tmp_path, env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("config error: dataset")
        assert not (tmp_path / "report.csv").exists()

    def test_unknown_flag_prints_usage_and_exits_one(self, capsys):
        rc = cli_main(["inspect", "--frobnicate", "x"])
        assert rc == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unreadable_config_file_is_config_error(self, tmp_path, capsys):
        assert cli_main(["run", "--config", str(tmp_path / "missing.json")]) == 1
        assert capsys.readouterr().err.startswith("config error: ")

    def test_failed_repeat_exits_two_and_still_writes_the_report(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        cfg_path = lowerbound_config_file(tmp_path, algorithm="raker", eta=1e300, output=str(out))
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli_main(["run", "--config", str(cfg_path)]) == 2
        assert "1 repeat(s) failed" in capsys.readouterr().err
        with open(out, newline="", encoding="utf-8") as fh:
            assert next(csv.DictReader(fh))["config"].startswith("FAILED: FloatingPointError")

    def test_config_without_output_writes_report_csv_in_the_working_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg_path = lowerbound_config_file(tmp_path, algorithm="momd_h", B=40)
        assert cli_main(["run", "--config", str(cfg_path)]) == 0
        assert "-> report.csv" in capsys.readouterr().out
        with open(tmp_path / "report.csv", newline="", encoding="utf-8") as fh:
            assert [r["seed"] for r in csv.DictReader(fh)] == ["0", "mean", "std"]

    def test_output_that_cannot_be_written_is_runtime_failure(self, tmp_path, capsys):
        cfg_path = lowerbound_config_file(tmp_path, algorithm="momd_h", B=40, output=str(tmp_path))
        assert cli_main(["run", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith("runtime failure: ")

    @pytest.mark.parametrize("raw", ["5", "null", '[["dataset", "a"]]', '"x"', "[]"],
                             ids=["number", "null", "pairs", "string", "empty-list"])
    def test_config_that_is_not_an_object_is_config_error(self, tmp_path, capsys, monkeypatch, raw):
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(raw, encoding="utf-8")
        assert cli_main(["run", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith("config error: a config must be a JSON object")
        assert not (tmp_path / "report.csv").exists()

    def test_bad_json_is_config_error(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("{not json", encoding="utf-8")
        assert cli_main(["run", "--config", str(cfg_path)]) == 1

    @pytest.mark.parametrize("content", [None, "1 1:0.5\n+1 2:x\n"], ids=["missing", "malformed"])
    def test_unreadable_inspect_dataset_is_config_error(self, tmp_path, capsys, content):
        path = tmp_path / "ds.txt"
        if content is not None:
            path.write_text(content, encoding="utf-8")
        assert cli_main(["inspect", str(path)]) == 1
        assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.dataset
def test_inspect_mushrooms_matches_published_size(capsys):
    path = dataset_path("mushrooms")
    assert cli_main(["inspect", str(path)]) == 0
    printed = capsys.readouterr().out
    assert "T=8124" in printed
    assert "d=112" in printed
