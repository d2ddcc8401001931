"""Golden traces: per-round digests of both learners on fixed seeds.

Each case streams a short fixed-seed stream through a learner and hashes,
per round, the predicted label, the exact bits of the aggregate
(``float.hex``), the branch, the coin and the removal flags, and at the end
the cumulative loss and the removal counts. The digests were recorded
before the smooth learner moved to one shared buffer; a change that moves
any rounding or random draw of a learner changes them. The two
``momd_h_blob`` digests were recorded again when the hinge learner moved to
one coefficient matrix: its sums now run in slot order over one pass of
the whole store, which moves the last bits of the aggregates (by at most
5e-13 relative), while every label, branch, coin, removal and reservoir
decision stayed the same. The ``momd_s_blob_half``, ``momd_s_blob_restart``
and ``momd_s_mixed_grid`` digests were recorded again when the smooth
learner moved onto the shared store and expansions: its predictions and
proxy-step values now sum over every store slot in slot order, and slots
are reused out of insertion order after a removal, which moves the last
bits of the aggregates (by at most 8e-15 relative), while every label,
branch, coin and removal stayed the same. ``momd_s_lowerbound_poly1`` did
not move. The three ``momd_h`` digests were recorded again when the hinge
learner's sampled step became closed-form: each squared norm now changes
by a formula over cached inner products instead of a fresh kernel block,
the step's coefficients are -rate (1 - 1/p) times the guess's instead of
-rate (g - g/p), and the guess's squared norm is summed from label sums
recomputed at each sample change instead of updated in place. That moves
the last bits of the aggregates (by at most 4e-13 relative), while every
label, branch, coin, removal and reservoir decision stayed the same, and
``tests/test_reference.py`` (the learner against its scalar reference)
passed on the same change. The four ``momd_s`` digests did not move.
``momd_h_blob_half`` was recorded again when the proxy step became
closed-form too: its norm change is 2 c f_i(x_j) + c^2 k_i(x_j, x_j) from
the iterate's values at the anchor instead of a kernel block over the
support, which moves the cached norm, and through a projection 12
aggregates, by at most 2e-15 relative, while every label, branch, coin and
removal stayed the same and ``tests/test_reference.py`` passed on the
same change. The other two ``momd_h`` digests did not move.
The ``momd_h`` full-state cases (``FULL_STATE``) replay two of those
streams and hash much more: per round the bits of every per-kernel value,
loss, coin probability (NaN included) and gap, the coins with their dtype,
the removal flags and the reservoir's decision, and at the end the
coefficient matrix's bytes, the cached norms, the gap sums, Hedge's state,
the buffers and the reservoir. They pin what the label-level digests above
would miss, such as a NaN probability turned into 0.0 or a flipped signed
zero in a coefficient. They were recorded before the hinge update moved
its per-kernel scalars from (K,) arrays to Python floats, and that change
left them, and every digest above, as they were.
The ``RECORD_STATE`` cases do the same for two ``momd_s`` streams and one
raker stream, with nothing chosen by hand: every field of every round's
record in exact bits, then the learner's whole final state through
``conftest.state_digest``, which hashes the store by what it holds and the
order in which it would hand out its free slots. The smooth learner's
proxy step reads the expansions' kernel rows at a stored example, so these
cases pin that pass in ``momd_s`` too. They were recorded before the
expansions' kernel rows came to skip the store slots never handed out.
The ``raker`` cases hash, per round, the exact bits of the random-feature
baseline's aggregate, and at the end its weights ``theta``; they pin the
feature map and the gradient step to the bit. They were recorded again when
the feature map moved from numpy's ``sin`` and ``cos`` to one ``tan`` of the
half angle: each feature moved by at most 1 ulp of 1.0, and on both streams
every label stayed the same (``tests/test_raker.py`` holds the sin/cos
reference and compares the two). The cases now pin the tan-based map.
The three raker digests (``GOLDEN`` ``raker_dense`` and ``raker_dense_reg``,
``RECORD_STATE`` ``raker_dense_reg``) and their ``_NO_AVX512`` entries
were recorded again when the kernels came to share one standard-normal
draw, kernel i's frequencies being that draw over sigma_i, in place of an
independent draw per kernel. The draws moved, so the aggregates, labels and
weights moved with them. The baseline is no weaker for it: on the
benchmark's ``raker_dense`` stream, seeds 1-12, with the sigma=4 kernel
(the one Hedge ends up on) given the same normal block under both schemes,
the shared draw's AMR differed from the independent draws' by +0.011
percentage points on average (sd 0.054, largest 0.090), and every seed
stayed under the 50% ceiling (largest 46.38%). Every ``momd_h`` and
``momd_s`` digest, and ``tests/test_reference.py``, passed unchanged.
numpy dispatches float64 ``tan`` by CPU (an AVX-512 loop where the CPU has
it, a scalar baseline elsewhere), and likewise the ``exp`` under the
selectors' Gaussian kernels, so a digest holds for one dispatch target.
The tables above hold the digests where both run on numpy's X86_V4
(AVX-512) loops. ``TARGET_DIGESTS`` holds the ones that move elsewhere,
keyed by the (exp, tan) targets that ``numpy.lib.introspect.opt_func_info``
reports; they were computed from unchanged code on an AVX-512 host with
``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"`` (exp on X86_V3,
tan on the baseline) and with ``X86_V3`` disabled as well (both on the
baseline), which gave the same 11 digests; the other 3 cases do not move.
A target with no recorded set fails every case, with a message naming it.
``RECORD_STATE`` hashes the learner's attribute names too, through
``state_digest``, so ``raker_dense_reg`` and its ``_NO_AVX512`` entry were
recorded again when ``RakerBaseline`` dropped its write-only ``cum_loss``
and its copy of ``config.kernels``. A hash of the per-round records and
the cumulative loss alone, without the final state, stayed the same on
both targets, and every other digest passed unchanged.
Print the current digests with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest

from okselect import (
    HingeKernelSelector,
    HingeSelectorConfig,
    RakerBaseline,
    RakerConfig,
    SmoothKernelSelector,
    SmoothSelectorConfig,
    gaussian,
    gen_lowerbound,
    polynomial,
    run_stream,
)

from conftest import blob_stream, state_digest

GRID = tuple(gaussian(s, i) for i, s in enumerate((0.25, 1.0, 4.0, 16.0, 64.0)))


def pooled_blobs(T: int, pool: int, seed: int):
    """T draws with replacement from a small blob pool, so inputs repeat and proxies fire."""
    X, y = blob_stream(pool, 4, seed=seed)
    idx = np.random.default_rng(seed).integers(0, pool, size=T)
    return X[idx], y[idx]


def lowerbound(budget: int, rounds: int, seed: int):
    ds = gen_lowerbound(budget=budget, rounds=rounds, seed=seed)
    return ds.dense_features(), ds.y


def ternary(T: int, d: int, seed: int, flip: float = 0.05):
    """Features from {0, 0.5, 1} labelled by a random linear rule, a share ``flip`` of labels flipped."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 3, size=(T, d)) / 2.0
    y = np.where((X - 0.5) @ rng.normal(size=d) >= 0.0, 1, -1)
    flipped = rng.choice(T, size=round(flip * T), replace=False)
    y[flipped] = -y[flipped]
    return X, y


def smooth(stream, **kw):
    return lambda: (SmoothKernelSelector(SmoothSelectorConfig(**kw)), stream)


def hinge(stream, **kw):
    return lambda: (HingeKernelSelector(HingeSelectorConfig(horizon=len(stream[1]), **kw)), stream)


# name -> (build, branches and removal the case must reach)
CASES = {
    "momd_s_blob_half": (
        smooth(pooled_blobs(500, 12, seed=41), kernels=GRID, dim=4, budget=8, seed=1),
        {"proxy", "sampled", "removed"},
    ),
    "momd_s_blob_restart": (
        smooth(pooled_blobs(500, 12, seed=42), kernels=GRID, dim=4, budget=6, seed=2, removal="restart"),
        {"proxy", "sampled", "removed"},
    ),
    "momd_s_mixed_grid": (
        smooth(
            pooled_blobs(400, 10, seed=43),
            kernels=(gaussian(0.5, 0), gaussian(4.0, 1), polynomial(1, 2)), dim=4, budget=4, seed=3,
        ),
        {"proxy", "sampled", "removed"},
    ),
    "momd_s_lowerbound_poly1": (
        smooth(lowerbound(10, 800, seed=44), kernels=(polynomial(1, 0),), dim=30, budget=10, seed=4),
        {"proxy", "sampled", "removed"},
    ),
    "momd_h_blob_half": (
        hinge(blob_stream(400, 4, seed=45, noise=1.5), kernels=GRID, dim=4, budget=40, seed=5),
        {"proxy", "sampled", "removed"},
    ),
    "momd_h_blob_restart": (
        hinge(blob_stream(400, 4, seed=46, noise=1.5), kernels=GRID, dim=4, budget=40, seed=6, removal="restart"),
        {"proxy", "sampled", "removed"},
    ),
    "momd_h_lowerbound_poly1": (
        hinge(lowerbound(10, 600, seed=47), kernels=(polynomial(1, 0),), dim=30, budget=20, seed=7),
        {"proxy", "sampled", "removed"},
    ),
}

# name -> (stream, RakerConfig fields beyond the kernels and dim). With D=64
# the 1/sqrt(D) feature scale is a power of two and scales exactly; D=100 is
# not, so the second case also pins how the features are scaled.
RAKER_CASES = {
    "raker_dense": (
        ternary(300, 68, seed=48), dict(num_features=64, step_size=1 / math.sqrt(300), reg=0.0, seed=8),
    ),
    "raker_dense_reg": (ternary(300, 68, seed=49), dict(num_features=100, step_size=0.2, reg=0.05, seed=9)),
}

# the momd_h cases whose whole state is hashed, every round and at the end
FULL_STATE = {
    "momd_h_blob_half": "45a2ea9d42c205f50fc8128296acdc58889910f496890e21fb309bcc5b9c56ee",
    "momd_h_blob_restart": "932da88f260eefc9e40b0728c91e539eaf4d45bef0658b116005af06b751e51f",
}

# momd_s and raker cases hashed as fully: every field of every round's record
# in exact bits, then the learner's whole final state (``state_digest``)
RECORD_STATE = {
    "momd_s_blob_half": "47bfc699aa9cab3ef1010717edabf7440c7a0704ed65b221bef2080ed3021b31",
    "momd_s_mixed_grid": "94c466272bac049e26a92aee87a34c4295b608ec98f68b0b011516c6cd8e6b12",
    "raker_dense_reg": "ecdb50a0525643746113cd2610e47a8f2264b29b728b754eb34e914d0f7fcc17",
}

GOLDEN = {
    "momd_s_blob_half": "427b1f22204957ec80f64f8c443c96299cbfd7c21577da9b3633b53037f9ed1b",
    "momd_s_blob_restart": "89535456a1de0a1f4eea1b1851ef5648e4290d0deba312311a03611eefffff26",
    "momd_s_mixed_grid": "868bfe6558ea0a90b75a0fa41f4c977e54d191e71b22a9ba79b79e0a3813296c",
    "momd_s_lowerbound_poly1": "e7dabb6961177bf1236945f682fe53af795a29b1b7af624e779e91b361f256d3",
    "momd_h_blob_half": "508b80b63f0e92493d430f2d98573cc30ebb6164bafcc5fb2179c29dea5671fe",
    "momd_h_blob_restart": "f36234fb6d7c09c3ed62144587cb32b96110a5dba23a7faee75361ab4ab32bea",
    "momd_h_lowerbound_poly1": "778d7afb4c2e0d773db067b67c1ad5e07b479368f18788de0fab675cfe3e4195",
    "raker_dense": "118ce7abba8cc8738c5f3c4d5f67a6666409dbddb3c92fac6a92e299847cc5c9",
    "raker_dense_reg": "24a7ae5d8a4bb28b64311d1b4b96635a8e02cf3a839745260aa8c1b6545a4960",
}


# digests that move off the X86_V4 loops, by (exp target, tan target); a case not named keeps its digest above
_NO_AVX512 = {
    "GOLDEN": {
        "momd_s_blob_half": "15083b06d567984891fa54c9d08b036910ced7b8d84c3eaf8fed20fb95a93af6",
        "momd_s_blob_restart": "66e621506836dbe9a1e35eb1c8cb8895356547349f0b019c41f655f59f800546",
        "momd_h_blob_half": "4ddd441a88800f425802ee9219b80955aaff10ae114f651a6ef7ac8c91540ccf",
        "momd_h_blob_restart": "6fb5d0d5f7f05f3a0a96452ddc30a48d65b686366243875f72f60638e2dcf74e",
        "raker_dense": "fa28e44aaf430d8991949af9c8cc3f11cf83aba3c5be6e3ee3d47447004ce2c5",
        "raker_dense_reg": "9ee35c8fbe4b502ca3b6bddfe012d16bd470a8a4a8ccdfb91a07378923fb283f",
    },
    "FULL_STATE": {
        "momd_h_blob_half": "aa0046809becc62b5a2d147617ea55e215cf2c96039c3b5e5098ffcc21467084",
        "momd_h_blob_restart": "2c87bb1eceacf5bcd8cb30b4b9eeb74d154bac64624a805ab61a93f91c9cb2c8",
    },
    "RECORD_STATE": {
        "momd_s_blob_half": "fcca9325b3e9aeba31a2eedb7c00dc6e64311cd1cd8d922c06e847a55f3ad270",
        "momd_s_mixed_grid": "b65f4ec353b2985bf7cefc1495248f4d9b00b5c30dd1fb2efd879d895200700f",
        "raker_dense_reg": "95bb620dd721ced9db05eabe422db79261033cd8d05f914ca76d40fd54eea8a0",
    },
}
TARGET_DIGESTS = {
    ("X86_V4", "X86_V4"): {},
    ("X86_V3", "baseline(X86_V2)"): _NO_AVX512,
    ("baseline(X86_V2)", "baseline(X86_V2)"): _NO_AVX512,
}
TABLES = {"GOLDEN": GOLDEN, "FULL_STATE": FULL_STATE, "RECORD_STATE": RECORD_STATE}


def dispatch_target() -> tuple[str, str]:
    """The CPU targets numpy runs float64 ``exp`` and ``tan`` on here."""
    from numpy.lib.introspect import opt_func_info

    info = opt_func_info(func_name="^(exp|tan)$", signature="float64")
    return info["exp"]["dd"]["current"], info["tan"]["dd"]["current"]


def expected(table: str, name: str) -> str:
    """The recorded digest of case ``name`` in ``table`` for this host's dispatch target."""
    target = dispatch_target()
    if target not in TARGET_DIGESTS:
        pytest.fail(f"no golden digests recorded for numpy's float64 exp on {target[0]} and tan on {target[1]}")
    return TARGET_DIGESTS[target].get(table, {}).get(name, TABLES[table][name])


def build_case(name: str):
    """(learner, (X, y)) of a selector or raker case."""
    if name in RAKER_CASES:
        (X, y), kw = RAKER_CASES[name]
        return RakerBaseline(RakerConfig(kernels=GRID, dim=X.shape[1], **kw)), (X, y)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return CASES[name][0]()


def trace(name: str):
    """(sha256 of the case's trace, the branches and removal it reached)."""
    learner, (X, y) = build_case(name)
    h = hashlib.sha256()
    reached = set()

    def record(rec):
        line = (
            rec.label,
            float(rec.aggregate).hex(),
            tuple(rec.branch),
            tuple(int(c) for c in rec.coin),
            tuple(bool(r) for r in rec.removed),
        )
        h.update(repr(line).encode())
        reached.update(rec.branch)
        if rec.removed.any():
            reached.add("removed")

    _, cum_loss = run_stream(learner, X, y, record)
    removals = np.atleast_1d(learner.removals).tolist()
    h.update(repr((cum_loss.hex(), removals)).encode())
    return h.hexdigest(), reached


def hexes(values) -> tuple:
    return tuple(float(v).hex() for v in np.asarray(values, dtype=float).ravel().tolist())


def full_state_trace(name: str) -> str:
    """sha256 over every round's record fields in exact bits and the learner's final state."""
    learner, (X, y) = build_case(name)
    h = hashlib.sha256()

    def record(rec):
        line = (
            hexes(rec.per_kernel),
            hexes(rec.losses),
            hexes(rec.prob),
            hexes(rec.gap_sq),
            str(rec.coin.dtype),
            rec.coin.tolist(),
            np.asarray(rec.removed, dtype=bool).tolist(),
            bool(rec.reservoir_accepted),
        )
        h.update(repr(line).encode())

    run_stream(learner, X, y, record)
    ex, res = learner.expansions, learner.reservoir
    h.update(ex.coef.tobytes())
    end = (
        hexes(ex.sq_norms),
        hexes(learner.gap_sums),
        hexes(learner.hedge.cum_loss),
        float(learner.hedge.second_moment).hex(),
        [buf.tolist() for buf in learner.buffers],
        learner.buffer_sizes.tolist(),
        res.sample.tolist(),
        list(res.archive),
    )
    h.update(repr(end).encode())
    return h.hexdigest()


def record_state_trace(name: str) -> str:
    """sha256 over every field of every round's record and the learner's final ``state_digest``.

    Arrays are hashed by dtype, shape and bytes and floats by ``float.hex``,
    so a flipped signed zero or a NaN turned into a number moves the digest.
    """
    learner, (X, y) = build_case(name)
    h = hashlib.sha256()

    def record(rec):
        for field in dataclasses.fields(rec):
            v = getattr(rec, field.name)
            if isinstance(v, np.ndarray):
                h.update(repr((field.name, v.dtype.str, v.shape)).encode())
                h.update(np.ascontiguousarray(v).tobytes())
            else:
                h.update(repr((field.name, v.hex() if isinstance(v, float) else v)).encode())

    _, cum_loss = run_stream(learner, X, y, record)
    h.update(cum_loss.hex().encode())
    h.update(state_digest(learner).encode())
    return h.hexdigest()


def raker_trace(name: str) -> str:
    """sha256 over every round's aggregate bits and the final ``theta`` bytes."""
    learner, (X, y) = build_case(name)
    h = hashlib.sha256()
    _, cum_loss = run_stream(learner, X, y, lambda rec: h.update(float(rec.aggregate).hex().encode()))
    h.update(cum_loss.hex().encode())
    h.update(learner.theta.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_trace(name):
    digest, reached = trace(name)
    assert CASES[name][1] <= reached, f"{name} reached only {sorted(reached)}"
    assert digest == expected("GOLDEN", name)


@pytest.mark.parametrize("name", sorted(FULL_STATE))
def test_hinge_full_state_trace(name):
    assert full_state_trace(name) == expected("FULL_STATE", name)


@pytest.mark.parametrize("name", sorted(RECORD_STATE))
def test_record_state_trace(name):
    assert record_state_trace(name) == expected("RECORD_STATE", name)


@pytest.mark.parametrize("name", sorted(RAKER_CASES))
def test_raker_golden_trace(name):
    assert raker_trace(name) == expected("GOLDEN", name)


if __name__ == "__main__":
    for case in CASES:
        digest, reached = trace(case)
        print(f'    "{case}": "{digest}",  # reaches {sorted(reached)}')
    for case in FULL_STATE:
        print(f'    "{case}": "{full_state_trace(case)}",  # full state')
    for case in RAKER_CASES:
        print(f'    "{case}": "{raker_trace(case)}",')
    for case in RECORD_STATE:
        print(f'    "{case}": "{record_state_trace(case)}",  # records and state')
