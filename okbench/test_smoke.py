"""Smoke test of the benchmark: every workload for a few hundred rounds.

Run from the repository root:

    python3 -m pytest okbench
"""

from __future__ import annotations

import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
warnings.filterwarnings("ignore", message="ball radius .* exceeds the analysed range")
warnings.filterwarnings("ignore", message="buffer budget .* is odd")

import okselect  # noqa: E402
from okbench import run  # noqa: E402
from okbench.harness import END_TO_END, PER_LAYER, PROBE_EVERY, REFERENCE_PROBE_NS, UNBOUNDED, Pass  # noqa: E402
from okbench.streams import dense_stream, onehot_stream, stream_digest  # noqa: E402
from okbench.tracer import Tracer, patch_sites  # noqa: E402
from okbench.workloads import WORKLOADS  # noqa: E402

ROUNDS = 300


def _run(capsys, *args):
    code = run.main(list(args))
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_reported_with_its_unit(capsys, workload, trace):
    code, report, result = _run(
        capsys, "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", str(trace), "--rounds", str(ROUNDS),
    )
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= ROUNDS
    expected = {**PER_LAYER, **UNBOUNDED} if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    # The report line carries all ten end-to-end metrics in both modes.
    assert {k: v["unit"] for k, v in report["metrics"].items()} == {**END_TO_END, **UNBOUNDED}
    assert set(report["raw_metrics"]) == set(END_TO_END) - {"setup_s"}
    assert report["stream"]["T"] == ROUNDS
    assert set(report["environment"]) >= {"git_sha", "python", "numpy", "nproc"}
    assert all(report["checks"].values())


def test_layers_that_do_no_work_report_zero(capsys):
    _, _, result = _run(capsys, "--workload", "smooth_dense", "--seed", "1", "--seconds", "0",
                        "--trace", "1", "--rounds", str(ROUNDS))
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["reservoir.observe_us_per_round"] == 0 and m["reservoir.accept_ratio"] == 0
    assert m["raker.features_us_per_round"] == 0 and m["hinge_learner.update_self_us"] == 0
    assert m["kernels.calls_per_round"] > 0 and m["smooth_learner.update_self_us"] > 0


def test_benchmark_json_declares_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {**PER_LAYER, **UNBOUNDED}
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {n: w.why for n, w in WORKLOADS.items()}


def test_reference_scale_divides_by_the_slower_probe_around_each_block():
    probe = np.array([REFERENCE_PROBE_NS, 2 * REFERENCE_PROBE_NS, REFERENCE_PROBE_NS / 2, REFERENCE_PROBE_NS / 4])
    p = Pass(2 * PROBE_EVERY + 1, 0, 0, None, None, None, None, 0, None, probe.astype(np.int64))
    scale = p.reference_scale()
    assert scale.shape == (2 * PROBE_EVERY + 1,)
    assert np.allclose(scale[: 2 * PROBE_EVERY], 0.5) and scale[-1] == 2.0


def test_tracer_restores_every_patched_name_even_on_error():
    sites = patch_sites()
    original_column = okselect.rkhs.kernel_column
    assert any(owner is okselect.rkhs and attr == "kernel_column" for _, owner, attr, _ in sites)
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            assert okselect.rkhs.kernel_column is not original_column
            okselect.kernels.gaussian(1.0)
            raise RuntimeError("boom")
    assert len(tracer) == 1
    assert okselect.rkhs.kernel_column is original_column
    for _, owner, attr, original in sites:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"


def test_streams_repeat_for_a_seed_and_differ_across_seeds():
    for gen in (onehot_stream, dense_stream):
        a, b, c = gen(5), gen(5), gen(6)
        assert stream_digest(a[0].toarray(), a[1]) == stream_digest(b[0].toarray(), b[1])
        assert stream_digest(a[0].toarray(), a[1]) != stream_digest(c[0].toarray(), c[1])
    X, y = onehot_stream(0)
    assert X.shape == (8124, 112) and set(X.sum(axis=1).A1) == {28.0}
    X, y = dense_stream(0)
    assert X.shape == (11055, 68) and set(X.data) <= {0.5, 1.0} and set(y) == {-1, 1}


def test_missing_sources_fail_without_a_result(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "hinge_onehot", "--seed", "0", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
