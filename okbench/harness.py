"""The benchmark's stream loop, its correctness gate and its metrics.

A run of one workload at one seed:

1. generates the stream (not timed);
2. warms up on the first ``WARMUP_ROUNDS`` rounds of a learner it then
   discards (not timed);
3. before each pass, sets the workload up ``SETUPS_PER_PASS`` times and
   keeps the last learner; ``setup_s`` is the median over all set-ups;
4. streams the whole stream through that fresh learner, pass after pass,
   until ``seconds`` are spent (at least ``MIN_PASSES`` passes), timing
   predict and predict+update of every round with tracing off, and times
   :func:`reference_probe` before every ``PROBE_EVERY`` rounds and after
   the last; the timings pool every round of every pass;
5. with tracing on, streams it once more under :class:`Tracer` and derives
   the per-layer metrics from the spans.

The benchmark shares a few cores of a host whose other tenants slow it by
up to 2x for seconds to minutes at a time. The end-to-end timings are
therefore reference-speed times: each round's time scaled by
``REFERENCE_PROBE_NS`` over the time of the slower of the probes before
and after its block of ``PROBE_EVERY`` rounds (the slower one, so that a
block the host slowed part-way through is not scaled up and does not set
the tail). ``setup_s`` stays raw: a set-up mostly allocates, slows little
with the host, and leaves a probe right after it running cold, so scaling
it made it spread more, not less. The probe is fixed code of the
benchmark's own, independent of okselect, so a change to okselect moves
these times as it moves the raw ones, while the host's speed cancels out.
The raw figures are in the report line too.

Every pass sees the same stream and a learner with the same seed, so the
mistakes, cumulative loss and peak store size of all passes, traced or
not, must agree exactly. That, the learners' own invariants, the memory
bound and an AMR ceiling form the correctness gate: each failed check and
each round that raised counts as a failure.
"""

from __future__ import annotations

import gc
import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from okbench.streams import stream_digest
from okbench.tracer import Tracer
from okbench.workloads import Workload

__all__ = [
    "END_TO_END", "UNBOUNDED", "PER_LAYER",
    "MIN_PASSES", "SETUPS_PER_PASS", "TRACED_PASS_COST", "WARMUP_ROUNDS",
    "PROBE_EVERY", "REFERENCE_PROBE_NS", "reference_probe", "run_pass", "measure",
]

MIN_PASSES = 3
SETUPS_PER_PASS = 7
WARMUP_ROUNDS = 500
PROBE_EVERY = 64  # rounds between two reference probes
# reference_probe's time on an idle core of the 2-core x86_64 VM (Python
# 3.11, numpy 2.4) the benchmark was tuned on, so that reference-speed
# times read as that machine's times when nothing else runs on it.
REFERENCE_PROBE_NS = 165_000
TRACED_PASS_COST = 2  # a traced pass takes about this many untraced ones

# name -> unit, measured with tracing off and bounded in BENCHMARK.json.
# The round timings are at reference speed: rounds_per_s is every round of
# every pass over their total time, and the percentiles are over every round
# of every pass. setup_s is the median raw set-up.
END_TO_END = {
    "rounds_per_s": "1/s",
    "predict_p50_us": "us",
    "predict_p99_us": "us",
    "round_p50_us": "us",
    "round_p99_us": "us",
    "setup_s": "s",
}

# End-to-end metrics that are reported and gated but carry no bound. They
# are exact for a given seed and guard against a speed-up that changes what
# the learner does, through the correctness gate; they vary from seed to
# seed more than any bound on a timing allows, and failed_round_ratio and
# raker's peak_live_examples are 0.
UNBOUNDED = {
    "AMR_percent": "%",
    "cum_loss": "loss",
    "peak_live_examples": "count",
    "failed_round_ratio": "ratio",
}

PER_LAYER = {
    "kernels.calls_per_round": "calls/round",
    "kernels.rows_per_round": "values/round",
    "kernels.self_us_per_round": "us/round",
    "rkhs.value_calls_per_round": "calls/round",
    "rkhs.value_self_us_per_round": "us/round",
    "rkhs.store_rows_calls_per_round": "calls/round",
    "rkhs.store_rows_us_per_round": "us/round",
    "rkhs.add_scaled_many_us_per_round": "us/round",
    "rkhs.add_scaled_us_per_round": "us/round",
    "rkhs.project_ball_us_per_round": "us/round",
    "rkhs.split_half_calls": "count",
    "rkhs.split_half_us_per_call": "us/call",
    "rkhs.peak_occupancy_ratio": "ratio",
    "reservoir.observe_us_per_round": "us/round",
    "reservoir.accept_ratio": "ratio",
    "reservoir.guess_us_per_round": "us/round",
    "hedge.update_us_per_round": "us/round",
    "hedge.distribution_calls_per_round": "calls/round",
    "hedge.distribution_us_per_round": "us/round",
    "losses.calls_per_round": "calls/round",
    "losses.us_per_round": "us/round",
    "hinge_learner.predict_self_us": "us/round",
    "hinge_learner.update_self_us": "us/round",
    "hinge_learner.skip_frac": "ratio",
    "hinge_learner.proxy_frac": "ratio",
    "hinge_learner.sampled_frac": "ratio",
    "hinge_learner.coin_accept_ratio": "ratio",
    "hinge_learner.removals": "count",
    "smooth_learner.predict_self_us": "us/round",
    "smooth_learner.update_self_us": "us/round",
    "smooth_learner.proxy_frac": "ratio",
    "smooth_learner.coin_accept_ratio": "ratio",
    "smooth_learner.removals": "count",
    "raker.features_us_per_round": "us/round",
    "raker.predict_self_us": "us/round",
    "raker.update_self_us": "us/round",
    "data.setup_s": "s",
    "bench.loop_overhead_us_per_round": "us/round",
    "bench.trace_overhead_ratio": "ratio",
}


_PROBE_ROWS = np.random.default_rng(0).random((64, 68))


def reference_probe() -> int:
    """Nanoseconds a fixed mix of small numpy calls and Python work takes.

    The mix resembles a learner's round (matrix-vector products, ufuncs,
    scalar conversions, list building) and touches 35 KB, so that it
    slows with the host as a round does without evicting the learner's
    arrays from the cache.
    """
    rows = _PROBE_ROWS
    t0 = time.perf_counter_ns()
    for i in range(40):
        d = rows @ rows[i]
        float(np.exp(-d).sum())
        [j * 2 for j in range(20)]
    return time.perf_counter_ns() - t0


@dataclass
class Pass:
    """One pass over the stream: per-round timings and outcomes."""

    done: int  # rounds that completed
    failed: int  # rounds that raised (a pass stops at the first)
    wall_ns: int
    predict_ns: np.ndarray
    round_ns: np.ndarray
    labels: np.ndarray
    aggregates: np.ndarray
    peak_live: int
    records: list | None
    probe_ns: np.ndarray  # reference_probe before rounds 0, PROBE_EVERY, ... and after the last; or empty

    @property
    def rounds_per_s(self) -> float:
        return self.done / (float(self.round_ns[: self.done].sum()) / 1e9)

    def reference_scale(self) -> np.ndarray:
        """Per completed round, REFERENCE_PROBE_NS over the slower probe around its block."""
        q = self.probe_ns.astype(float)
        return np.repeat(REFERENCE_PROBE_NS / np.maximum(q[:-1], q[1:]), PROBE_EVERY)[: self.done]


def _outcome(layer):
    if layer == "raker":
        return lambda pred: (pred[2], pred[1])  # RakerBaseline.predict returns (values, aggregate, label)
    return lambda pred: (pred.label, pred.aggregate)


def run_pass(stream, outcome, tracer: Tracer | None = None, keep_records: bool = False, probe: bool = False) -> Pass:
    """Stream every example through ``stream.learner`` in a closed loop.

    With ``probe``, :func:`reference_probe` runs before every
    ``PROBE_EVERY`` rounds and after the last, outside the rounds' times.
    """
    X, learner = stream.X, stream.learner
    ys = stream.y.tolist()
    T = len(ys)
    predict_ns = np.zeros(T, dtype=np.int64)
    round_ns = np.zeros(T, dtype=np.int64)
    labels = np.zeros(T, dtype=np.int64)
    aggregates = np.zeros(T)
    store = getattr(learner, "store", None)
    records = [] if keep_records else None
    probes = []
    clock = time.perf_counter_ns
    peak = done = failed = 0
    gc.collect()
    start = clock()
    for t in range(T):
        x, yt = X[t], ys[t]
        if tracer is not None:
            tracer.round = t
        if probe and t % PROBE_EVERY == 0:
            probes.append(reference_probe())
        try:
            t0 = clock()
            pred = learner.predict(x)
            t1 = clock()
            rec = learner.update(x, yt)
            t2 = clock()
        except Exception:  # noqa: BLE001 - a raising round is a counted failure
            traceback.print_exc(file=sys.stderr)
            failed = 1
            break
        predict_ns[t] = t1 - t0
        round_ns[t] = t2 - t0
        labels[t], aggregates[t] = outcome(pred)
        if store is not None:
            peak = max(peak, len(store))
        if records is not None:
            records.append(rec)
        done += 1
    if probe:
        probes.append(reference_probe())
    wall = clock() - start
    if tracer is not None:
        tracer.round = -1
    return Pass(done, failed, wall, predict_ns, round_ns, labels, aggregates, peak, records, np.array(probes))


def _behaviour(p: Pass, stream) -> tuple[int, float, int]:
    """(mistakes, cum_loss, peak live examples) of a pass."""
    y = stream.y[: p.done]
    mistakes = int(np.count_nonzero(p.labels[: p.done] != y))
    cum_loss = math.fsum(stream.loss.value(float(a), int(t)) for a, t in zip(p.aggregates[: p.done], y))
    return mistakes, cum_loss, p.peak_live


def _pass_checks(workload: Workload, learner, behaviour, rounds: int, full: bool) -> dict:
    mistakes, cum_loss, peak = behaviour
    checks = {"cum_loss_finite": math.isfinite(cum_loss)}
    if full:
        checks["amr_below_ceiling"] = 100.0 * mistakes / max(rounds, 1) < workload.amr_ceiling
    if workload.budget is not None:
        checks["peak_within_budget"] = peak <= workload.budget + 1
    if hasattr(learner, "check_invariants"):
        try:
            learner.check_invariants()
            checks["invariants"] = True
        except AssertionError:
            traceback.print_exc(file=sys.stderr)
            checks["invariants"] = False
    return checks


def _percentiles_us(samples, qs=(50, 99)):
    return [float(v) / 1e3 for v in np.percentile(samples, qs)]


def _branch_stats(records) -> dict:
    branches = np.array([b for r in records for b in r.branch])
    coins = np.concatenate([r.coin for r in records]) if records else np.zeros(0)
    drawn = int(np.count_nonzero(coins >= 0))
    n = max(len(branches), 1)
    return {
        "skip_frac": float(np.count_nonzero(branches == "skip")) / n,
        "proxy_frac": float(np.count_nonzero(branches == "proxy")) / n,
        "sampled_frac": float(np.count_nonzero(branches == "sampled")) / n,
        "coin_accept_ratio": float(np.count_nonzero(coins == 1)) / drawn if drawn else 0.0,
    }


def _layer_metrics(workload, tracer, traced: Pass, learner, untraced_rate, loop_overhead_us):
    tot = tracer.totals()
    setup = tracer.totals(setup=True)
    T = max(traced.done, 1)

    def per_round_us(ns):
        return ns / T / 1e3

    observe_calls = tot.count("reservoir.Reservoir.observe")
    accepted = sum(bool(getattr(r, "reservoir_accepted", False)) for r in traced.records)
    split_calls = tot.count("rkhs.BudgetedFunction.split_half")
    m = {
        "kernels.calls_per_round": tot.count("kernels") / T,
        "kernels.rows_per_round": tot.work_done("kernels") / T,
        "kernels.self_us_per_round": per_round_us(tot.self_time_ns("kernels")),
        "rkhs.value_calls_per_round": tot.count("rkhs.BudgetedFunction.value") / T,
        "rkhs.value_self_us_per_round": per_round_us(tot.self_time_ns("rkhs.BudgetedFunction.value")),
        "rkhs.store_rows_calls_per_round": tot.count("rkhs.ExampleStore.rows") / T,
        "rkhs.store_rows_us_per_round": per_round_us(tot.inclusive_ns("rkhs.ExampleStore.rows")),
        "rkhs.add_scaled_many_us_per_round": per_round_us(tot.inclusive_ns("rkhs.BudgetedFunction.add_scaled_many")),
        "rkhs.add_scaled_us_per_round": per_round_us(tot.inclusive_ns("rkhs.BudgetedFunction.add_scaled")),
        "rkhs.project_ball_us_per_round": per_round_us(tot.inclusive_ns("rkhs.BudgetedFunction.project_ball")),
        "rkhs.split_half_calls": split_calls,
        "rkhs.split_half_us_per_call": (
            tot.inclusive_ns("rkhs.BudgetedFunction.split_half") / split_calls / 1e3 if split_calls else 0.0
        ),
        "rkhs.peak_occupancy_ratio": traced.peak_live / workload.budget if workload.budget else 0.0,
        "reservoir.observe_us_per_round": per_round_us(tot.inclusive_ns("reservoir.Reservoir.observe")),
        "reservoir.accept_ratio": accepted / observe_calls if observe_calls else 0.0,
        "reservoir.guess_us_per_round": per_round_us(sum(
            tot.inclusive_ns(f"reservoir.Reservoir.{name}")
            for name in ("optimistic_value_many", "optimistic_coeffs", "optimistic_sq_norm")
        )),
        "hedge.update_us_per_round": per_round_us(tot.inclusive_ns("hedge.HedgeState.update")),
        "hedge.distribution_calls_per_round": tot.count("hedge.HedgeState.distribution") / T,
        "hedge.distribution_us_per_round": per_round_us(tot.inclusive_ns("hedge.HedgeState.distribution")),
        "losses.calls_per_round": tot.count("losses") / T,
        "losses.us_per_round": per_round_us(tot.self_time_ns("losses")),
        "raker.features_us_per_round": per_round_us(tot.inclusive_ns("raker.RakerBaseline.features")),
        "raker.predict_self_us": per_round_us(tot.self_time_ns("raker.RakerBaseline.predict")),
        "raker.update_self_us": per_round_us(tot.self_time_ns("raker.RakerBaseline.update")),
        "data.setup_s": setup.self_time_ns("data") / 1e9,
        "bench.loop_overhead_us_per_round": loop_overhead_us,
        "bench.trace_overhead_ratio": traced.rounds_per_s / untraced_rate,
    }
    for layer, cls in (("hinge_learner", "HingeKernelSelector"), ("smooth_learner", "SmoothKernelSelector")):
        ours = workload.layer == layer
        m[f"{layer}.predict_self_us"] = per_round_us(tot.self_time_ns(f"{layer}.{cls}.predict"))
        m[f"{layer}.update_self_us"] = per_round_us(tot.self_time_ns(f"{layer}.{cls}.update"))
        stats = _branch_stats(traced.records) if ours else {}
        for key in ("skip_frac", "proxy_frac", "sampled_frac", "coin_accept_ratio"):
            name = f"{layer}.{key}"
            if name in PER_LAYER:
                m[name] = stats.get(key, 0.0)
        m[f"{layer}.removals"] = int(np.sum(learner.removals)) if ours else 0
    return {name: m[name] for name in PER_LAYER}


def measure(workload: Workload, seed: int, seconds: float, trace: bool = False, rounds: int | None = None):
    """Run one workload at one seed; returns (report, checks, metrics).

    Untraced passes start while one more fits in ``seconds``, counting
    from the warm-up; with ``trace`` the traced pass, which takes about
    ``TRACED_PASS_COST`` untraced ones, is counted in too. ``report``
    describes the stream and holds every end-to-end metric, bounded or
    not, and the raw timings; ``metrics`` holds the end-to-end metrics,
    plus the per-layer ones when ``trace`` is set. ``rounds`` truncates
    the stream for smoke tests, which then skip the AMR ceiling.
    """
    raw = workload.generate(seed)
    outcome = _outcome(workload.layer)
    setup_ns = []

    def set_up():
        for _ in range(SETUPS_PER_PASS):
            t0 = time.perf_counter_ns()
            stream = workload.setup(raw, seed)
            setup_ns.append(time.perf_counter_ns() - t0)
        if rounds is not None:
            stream.X, stream.y = stream.X[:rounds], stream.y[:rounds]
        return stream

    checks = {}
    passes = []
    behaviours = []
    deadline = time.perf_counter_ns() + seconds * 1e9
    warmup = workload.setup(raw, seed)
    warmup.X, warmup.y = warmup.X[:WARMUP_ROUNDS], warmup.y[:WARMUP_ROUNDS]
    run_pass(warmup, outcome)
    del warmup
    pass_ns = 0
    while len(passes) < MIN_PASSES or (
        time.perf_counter_ns() + pass_ns * (1 + trace * TRACED_PASS_COST) < deadline
    ):
        pass_start = time.perf_counter_ns()
        stream = set_up()
        if not passes:
            digest = {"T": len(stream.y), "d": stream.X.shape[1], "sha256": stream_digest(stream.X, stream.y)}
        p = run_pass(stream, outcome, probe=True)
        passes.append(p)
        behaviours.append(_behaviour(p, stream))
        for name, ok in _pass_checks(workload, stream.learner, behaviours[-1], p.done, rounds is None).items():
            checks[name] = checks.get(name, True) and ok
        del stream
        pass_ns = time.perf_counter_ns() - pass_start
        if p.failed:
            break
    checks["passes_agree"] = len(set(behaviours)) == 1
    attempted = sum(p.done + p.failed for p in passes)
    failed_rounds = sum(p.failed for p in passes)

    done = min(p.done for p in passes)
    raw_predict_ns = np.concatenate([p.predict_ns[: p.done] for p in passes])
    raw_round_ns = np.concatenate([p.round_ns[: p.done] for p in passes])
    scale = np.concatenate([p.reference_scale() for p in passes])
    predict_ns, round_ns = raw_predict_ns * scale, raw_round_ns * scale
    loop_overhead_us = statistics.median(
        (p.wall_ns - float(p.round_ns[: p.done].sum()) - float(p.probe_ns.sum())) / max(p.done, 1) / 1e3
        for p in passes
    )
    mistakes, cum_loss, peak = behaviours[0]
    metrics = {"rounds_per_s": len(round_ns) / (float(round_ns.sum()) / 1e9)}
    metrics["predict_p50_us"], metrics["predict_p99_us"] = _percentiles_us(predict_ns)
    metrics["round_p50_us"], metrics["round_p99_us"] = _percentiles_us(round_ns)
    metrics["setup_s"] = statistics.median(setup_ns) / 1e9
    raw_rate = statistics.median(p.rounds_per_s for p in passes)
    raw_metrics = {"rounds_per_s": raw_rate}
    raw_metrics["predict_p50_us"], raw_metrics["predict_p99_us"] = _percentiles_us(raw_predict_ns)
    raw_metrics["round_p50_us"], raw_metrics["round_p99_us"] = _percentiles_us(raw_round_ns)
    metrics.update(AMR_percent=100.0 * mistakes / max(done, 1), cum_loss=cum_loss, peak_live_examples=peak)

    report = {"workload": workload.name, "seed": seed, "stream": digest}
    if trace:
        tracer = Tracer()
        with tracer:
            stream = workload.setup(raw, seed)
            if rounds is not None:
                stream.X, stream.y = stream.X[:rounds], stream.y[:rounds]
            traced = run_pass(stream, outcome, tracer=tracer, keep_records=True)
        attempted += traced.done + traced.failed
        failed_rounds += traced.failed
        checks["traced_matches_untraced"] = _behaviour(traced, stream)[:2] == (mistakes, cum_loss)
        metrics.update(_layer_metrics(workload, tracer, traced, stream.learner, raw_rate, loop_overhead_us))
        report["spans"] = len(tracer)

    failed = failed_rounds + sum(not ok for ok in checks.values())
    metrics["failed_round_ratio"] = failed / max(attempted, 1)
    units = {**END_TO_END, **UNBOUNDED}
    report.update(
        passes=len(passes),
        pass_rounds_per_s=[p.rounds_per_s for p in passes],
        host_speed=float(np.median(REFERENCE_PROBE_NS / np.concatenate([p.probe_ns for p in passes]))),
        setup_reps=len(setup_ns),
        latency_samples=len(round_ns),
        attempted=attempted,
        failed=failed,
        metrics={name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        raw_metrics=raw_metrics,
    )
    return report, checks, metrics
