"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria that need the published benchmark datasets (mushrooms, phishing)
look for the files under ``data/`` at the repo root or ``$OKSELECT_DATA``
and skip with instructions when absent; everything else runs on synthetic
streams and is asserted unconditionally.
"""

import math
import warnings

import numpy as np
import pytest
from scipy import stats

from okselect import (
    ExampleStore,
    ExperimentConfig,
    HedgeState,
    HingeKernelSelector,
    HingeSelectorConfig,
    Reservoir,
    SmoothKernelSelector,
    SmoothSelectorConfig,
    alignment_probe,
    gaussian,
    gen_lowerbound,
    polynomial,
    run,
    run_stream,
)
from okselect.kernels import kernel_eval

from conftest import blob_stream, dataset_path, offer, store_example
from scalar_reference import importance_weighted_coeffs

GRID = tuple(gaussian(s, i) for i, s in enumerate((0.25, 1.0, 4.0, 16.0, 64.0)))


def report(criterion: str, ok: bool, detail: str = ""):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {criterion} failed: {detail}"


def quiet_smooth(**kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return SmoothKernelSelector(SmoothSelectorConfig(**kw))


def stream_with_checks(learner, X, y):
    """Drive a full run with per-round hard-invariant assertions."""
    run_stream(learner, X, y, lambda rec: learner.check_invariants())


# ---------------------------------------------------------------------------
# 1. benchmark reproduction, hinge learner on mushrooms
# ---------------------------------------------------------------------------


@pytest.mark.dataset
def test_criterion_1_mushrooms_hinge():
    from okselect.bench import sweep

    path = dataset_path("mushrooms")
    cfg = ExperimentConfig(
        dataset=str(path), algorithm="momd_h", loss="hinge", B=400, M=10, repeats=10, seed=0
    )
    overrides, rep, results = sweep(cfg, {"lambda_scale": [2.0, 1.0, 0.5]})
    for _, r in results:
        walls = [float(row["wall_time_s"]) for row in r.rows if row["wall_time_s"] != ""]
        assert walls and max(walls) <= 300.0, "a repeat exceeded the 5-minute budget"
    amr = rep.mean("AMR_percent")
    report("1", amr <= 2.5, f"best mean AMR {amr:.3f}% at lambda_scale={overrides['lambda_scale']}")


# ---------------------------------------------------------------------------
# 2. benchmark reproduction, smooth learner on mushrooms and phishing
# ---------------------------------------------------------------------------


@pytest.mark.dataset
@pytest.mark.parametrize(
    "name,limit",
    [("mushrooms", 6.0), ("phishing", 15.0)],
)
def test_criterion_2_smooth_benchmarks(name, limit):
    from okselect.bench import sweep

    path = dataset_path(name)
    cfg = ExperimentConfig(
        dataset=str(path), algorithm="momd_s", loss="logistic", B=400, repeats=10, seed=0
    )
    overrides, rep, _ = sweep(cfg, {"lambda_scale": [2.0, 1.0, 0.5]})
    amr = rep.mean("AMR_percent")
    report(
        f"2[{name}]", amr <= limit, f"best mean AMR {amr:.3f}% at lambda_scale={overrides['lambda_scale']}"
    )


# ---------------------------------------------------------------------------
# 3. data-complexity claim: alignment proxy and cumulative loss well below T
# ---------------------------------------------------------------------------


@pytest.mark.dataset
def test_criterion_3_data_complexity():
    path = dataset_path("mushrooms")
    cfg = ExperimentConfig(dataset=str(path), algorithm="momd_h", B=400, M=30, repeats=1, seed=0)
    probe = alignment_probe(cfg)
    T = probe["T"]
    ok_align = probe["min"] <= 0.25 * T
    smooth_cfg = ExperimentConfig(
        dataset=str(path), algorithm="momd_s", loss="logistic", B=400, repeats=3, seed=0
    )
    rep = run(smooth_cfg)
    cum = rep.mean("cum_loss")
    ok_loss = cum <= 0.25 * T
    report(
        "3",
        ok_align and ok_loss,
        f"min alignment proxy {probe['min']:.1f} and smooth cumulative loss {cum:.1f} vs 0.25*T={0.25 * T:.0f}",
    )


# ---------------------------------------------------------------------------
# 4. removal-count diagnostics against the expected-removals scale
# ---------------------------------------------------------------------------


def test_criterion_4_removal_diagnostics():
    X, y = blob_stream(2500, 4, seed=60)
    details = []

    hinge = HingeKernelSelector(
        HingeSelectorConfig(kernels=GRID, dim=4, budget=60, horizon=2500, seed=1)
    )
    stream_with_checks(hinge, X, y)
    hinge_bound = 3 * hinge.removal_bounds(k1=1.0)
    details.append(f"hinge J={hinge.removals.tolist()} cap={hinge_bound.astype(int).tolist()}")
    ok_h = bool(np.all(hinge.removals <= hinge_bound))

    smooth = quiet_smooth(kernels=GRID, dim=4, budget=24, seed=1)
    stream_with_checks(smooth, X, y)
    smooth_cap = 3 * smooth.removal_bound(delta=0.01)
    details.append(f"smooth J={smooth.removals} cap={smooth_cap:.0f}")
    ok_s = smooth.removals <= smooth_cap

    ds = gen_lowerbound(budget=20, rounds=3000, seed=2)
    lb = quiet_smooth(kernels=(polynomial(1, 0),), dim=ds.dim, budget=30, seed=2)
    stream_with_checks(lb, ds.dense_features(), ds.y)
    lb_cap = 3 * lb.removal_bound(delta=0.01)
    details.append(f"lowerbound J={lb.removals} cap={lb_cap:.0f}")
    ok_lb = lb.removals <= lb_cap

    report("4", ok_h and ok_s and ok_lb, "; ".join(details))


# ---------------------------------------------------------------------------
# 5. budget hard invariants over full runs
# ---------------------------------------------------------------------------


def test_criterion_5_budget_invariants():
    checked = 0

    X, y = blob_stream(2000, 5, seed=61)
    for seed in (0, 1):
        hinge = HingeKernelSelector(
            HingeSelectorConfig(kernels=GRID, dim=5, budget=50, horizon=2000, seed=seed)
        )
        stream_with_checks(hinge, X, y)  # asserts every round
        checked += 1

        smooth = quiet_smooth(kernels=GRID, dim=5, budget=16, seed=seed)
        stream_with_checks(smooth, X, y)
        checked += 1

    ds = gen_lowerbound(budget=10, rounds=1500, seed=3)
    lb = quiet_smooth(kernels=(polynomial(1, 0),), dim=ds.dim, budget=12, seed=3)
    stream_with_checks(lb, ds.dense_features(), ds.y)
    checked += 1

    report("5", checked == 5, f"{checked} full runs with per-round assertions, zero violations")


@pytest.mark.dataset
def test_criterion_5_budget_invariants_on_benchmark():
    path = dataset_path("mushrooms")
    from okselect.bench import load_dataset
    from okselect.data import permute

    cfg = ExperimentConfig(dataset=str(path), algorithm="momd_h", B=400, repeats=1, seed=0)
    ds = permute(load_dataset(cfg), 0)
    learner = HingeKernelSelector(
        HingeSelectorConfig(kernels=GRID, dim=ds.dim, budget=400, horizon=ds.num_examples, seed=0)
    )
    stream_with_checks(learner, ds.dense_features(), ds.y)
    report("5[mushrooms]", True, "per-round assertions over the full dataset")


# ---------------------------------------------------------------------------
# 6. unbiasedness of the sampled surrogate gradients
# ---------------------------------------------------------------------------


def test_criterion_6_unbiased_surrogates():
    rng = np.random.default_rng(62)
    draws = 100_000
    worst = 0.0

    # hinge scheme: tilde = (grad - guess)/P 1[b] + guess over explicit anchors
    for state in range(10):
        m = int(rng.integers(2, 8))
        y = float(rng.choice([-1.0, 1.0]))
        grad = {1000 + state: -y}
        guess = {j: -float(rng.choice([-1.0, 1.0])) / m for j in range(m)}
        gap_sq = float(rng.uniform(0.05, 4.0))
        guess_sq = float(rng.uniform(0.0, 2.0))
        prob = gap_sq / (gap_sq + guess_sq)
        v1 = importance_weighted_coeffs(grad, guess, prob, True)
        v0 = importance_weighted_coeffs(grad, guess, prob, False)
        hits = rng.random(draws) < prob
        phat = hits.mean()
        keys = set(v1) | set(v0) | set(grad)
        for kk in keys:
            a, b = v1.get(kk, 0.0), v0.get(kk, 0.0)
            est = phat * a + (1 - phat) * b
            se = abs(a - b) * math.sqrt(phat * (1 - phat) / draws)
            err = abs(est - grad.get(kk, 0.0))
            assert err <= 3 * se + 1e-12, f"hinge anchor {kk}: err {err} > 3se {3 * se}"
            worst = max(worst, err - 3 * se)

    # smooth scheme: tilde = (d/P) 1[b], P = |d|/(|d| + G1)
    for state in range(10):
        d = float(rng.uniform(-1.0, 1.0))
        if d == 0.0:
            d = 0.3
        g1 = 1.0
        prob = abs(d) / (abs(d) + g1)
        hits = rng.random(draws) < prob
        vals = np.where(hits, d / prob, 0.0)
        se = vals.std(ddof=1) / math.sqrt(draws)
        err = abs(vals.mean() - d)
        assert err <= 3 * se, f"smooth state {state}: err {err} > 3se {3 * se}"

    report("6", True, "20 randomized states within 3 standard errors at 1e5 draws")


# ---------------------------------------------------------------------------
# 7. the closed-form projected step minimizes the mirror objective
# ---------------------------------------------------------------------------


def test_criterion_7_mirror_step_optimality():
    from okselect.rkhs import KernelExpansions

    rng = np.random.default_rng(63)
    spec = gaussian(1.0)
    for state in range(100):
        n = int(rng.integers(3, 10))
        store = ExampleStore(dim=3)
        ids = [store_example(store, rng.normal(size=3), 1) for _ in range(n)]
        pts = [store.X[s].copy() for s in ids]
        G = np.array([[kernel_eval(spec, a, b) for b in pts] for a in pts])
        radius = float(rng.uniform(0.5, 2.0))
        lam = float(rng.uniform(0.05, 1.0))

        f = KernelExpansions((spec,), store)
        beta_f = rng.normal(size=n) * rng.uniform(0.2, 1.5)
        f.coef[0, ids] = beta_f
        f.recompute_sq_norms()
        f.project(radius)  # feasible start
        beta_f = f.coef[0, ids].copy()

        grad = np.zeros(n)
        grad[rng.integers(n)] = rng.normal()
        grad[rng.integers(n)] += rng.normal()

        f.coef[0, ids] -= lam * grad
        f.recompute_sq_norms()
        f.project(radius)
        beta_new = f.coef[0, ids].copy()

        def objective(beta):
            diff = beta - beta_f
            return float(beta @ G @ grad + (diff @ G @ diff) / (2.0 * lam))

        best = objective(beta_new)
        for _ in range(1000):
            cand = rng.normal(size=n)
            nrm = math.sqrt(max(cand @ G @ cand, 1e-300))
            cand *= rng.uniform(0.0, radius) / nrm
            assert best <= objective(cand) + 1e-9
    report("7", True, "100 states, 1000 feasible perturbations each, tolerance 1e-9")


# ---------------------------------------------------------------------------
# 8. adaptive-rate aggregation regret against the best expert
# ---------------------------------------------------------------------------


def test_criterion_8_hedge_regret_oracle():
    rng = np.random.default_rng(64)
    K, T = 5, 2000
    margin_min = math.inf
    for trial in range(50):
        hedge = HedgeState(K)
        max_c = float(rng.uniform(0.5, 2.0))
        bias = rng.uniform(0.2, 1.0, size=K)
        mixed = 0.0
        cum = np.zeros(K)
        for t in range(T):
            c = np.minimum(rng.uniform(0, 1, size=K) * bias * max_c, max_c)
            p = hedge.update(c)
            mixed += float(p @ c)
            cum += c
        l_min = float(cum.min())
        bound = (3.0 / math.sqrt(2.0)) * math.sqrt(max_c * l_min * math.log(K)) + 4.5 * max_c * math.log(K)
        margin_min = min(margin_min, bound - (mixed - l_min))
        assert mixed - l_min <= bound, f"trial {trial}: regret {mixed - l_min:.2f} > bound {bound:.2f}"
    report("8", True, f"50 sequences; smallest slack to the bound {margin_min:.2f}")


# ---------------------------------------------------------------------------
# 9. reservoir uniformity
# ---------------------------------------------------------------------------


def test_criterion_9_reservoir_uniformity():
    M, T, runs = 10, 1000, 10_000
    rng = np.random.default_rng(65)
    counts = np.zeros(T, dtype=np.int64)
    x, x_sqnorm = np.zeros(1), 0.0  # built once for the 10^7 offers
    for _ in range(runs):
        store = ExampleStore(dim=1, capacity=128)
        r = Reservoir(store, M, 10**9, rng)
        round_of = {}
        for t in range(T):
            if offer(r, x, 1, x_sqnorm):
                round_of[r.archive[-1]] = t
        for eid in r.sample:
            counts[round_of[eid]] += 1
    expected = runs * M / T
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    threshold = float(stats.chi2.ppf(1.0 - 0.001, df=T - 1))
    report("9", chi2 <= threshold, f"chi2 {chi2:.1f} vs 0.001-level threshold {threshold:.1f}")


# ---------------------------------------------------------------------------
# 10. loss decreases with budget on the adversarial stream
# ---------------------------------------------------------------------------


def test_criterion_10_budget_tradeoff():
    seeds = range(10)
    datasets = {s: gen_lowerbound(budget=50, rounds=20000, seed=100 + s) for s in seeds}
    means = {}
    for budget in (25, 100, 400):
        per_seed = []
        for s in seeds:
            ds = datasets[s]
            learner = quiet_smooth(
                kernels=(polynomial(1, 0),), dim=ds.dim, budget=budget, seed=s
            )
            run_stream(learner, ds.dense_features(), ds.y)
            per_seed.append(learner.cum_loss / ds.num_examples)
        means[budget] = float(np.mean(per_seed))
    ok = means[25] >= means[100] >= means[400]
    report("10", ok, f"avg per-round loss {means[25]:.4f} >= {means[100]:.4f} >= {means[400]:.4f}")


# ---------------------------------------------------------------------------
# 11. half-removal vs restart (soft criterion: reported, not asserted)
# ---------------------------------------------------------------------------


@pytest.mark.dataset
def test_criterion_11_removal_vs_restart():
    rows = []
    for name in ("mushrooms", "phishing"):
        path = dataset_path(name)
        means = {}
        for removal in ("half", "restart"):
            cfg = ExperimentConfig(
                dataset=str(path),
                algorithm="momd_s",
                loss="logistic",
                B=64,
                repeats=10,
                seed=0,
                removal=removal,
            )
            means[removal] = run(cfg).mean("cum_loss")
        rows.append((name, means["half"], means["restart"]))
    detail = "; ".join(
        f"{n}: half {h:.1f} vs restart {r:.1f} ({'<=' if h <= r else '>'})" for n, h, r in rows
    )
    # soft criterion: the comparison is logged, not asserted
    report("11", True, detail)
