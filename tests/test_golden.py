"""Golden traces: per-round digests of the three learners on fixed seeds.

Each case streams a short fixed-seed stream through a learner and gives a
pair of sha256 digests. The records digest hashes every field of every
round's ``RoundRecord`` in exact bits (arrays by dtype, shape and bytes,
floats by ``float.hex``, so a flipped signed zero or a NaN turned into a
number moves it), then the cumulative loss. The state digest is
``conftest.state_digest`` of the learner at the end. A change that moves a
rounding or a random draw moves the records digest; a change to the
learner's attributes alone moves only the state digest. CHANGES.md holds
the history of every digest recorded again.

numpy dispatches float64 ``exp`` (under the Gaussian kernels) and ``tan``
(under the raker's feature map) by CPU, so a digest holds for one dispatch
target. ``DIGESTS`` holds the pairs where both run on numpy's X86_V4
(AVX-512) loops, and ``_NO_AVX512`` the pairs that move where exp runs on
X86_V3 or the baseline and tan on the baseline. ``TARGET_DIGESTS`` keys
them by the (exp, tan) targets that ``numpy.lib.introspect.opt_func_info``
reports; a target with no recorded set fails every case, naming it.

Print the digests with ``PYTHONPATH=src python tests/test_golden.py``, and
once more with ``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``
set for the ``_NO_AVX512`` set.
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

pytestmark = pytest.mark.bits

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


# every selector case must reach these branches and a removal
REQUIRED = {"proxy", "sampled", "removed"}

# name -> build
CASES = {
    "momd_s_blob_half": smooth(pooled_blobs(500, 12, seed=41), kernels=GRID, dim=4, budget=8, seed=1),
    "momd_s_blob_restart": smooth(
        pooled_blobs(500, 12, seed=42), kernels=GRID, dim=4, budget=6, seed=2, removal="restart"
    ),
    "momd_s_mixed_grid": smooth(
        pooled_blobs(400, 10, seed=43),
        kernels=(gaussian(0.5, 0), gaussian(4.0, 1), polynomial(1, 2)), dim=4, budget=4, seed=3,
    ),
    "momd_s_lowerbound_poly1": smooth(
        lowerbound(10, 800, seed=44), kernels=(polynomial(1, 0),), dim=30, budget=10, seed=4
    ),
    "momd_h_blob_half": hinge(blob_stream(400, 4, seed=45, noise=1.5), kernels=GRID, dim=4, budget=40, seed=5),
    "momd_h_blob_restart": hinge(
        blob_stream(400, 4, seed=46, noise=1.5), kernels=GRID, dim=4, budget=40, seed=6, removal="restart"
    ),
    "momd_h_lowerbound_poly1": hinge(
        lowerbound(10, 600, seed=47), kernels=(polynomial(1, 0),), dim=30, budget=20, seed=7
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

# name -> (records digest, state digest) on numpy's X86_V4 loops
DIGESTS = {
    "momd_s_blob_half": ("41cc8e2ca7bd5cb7d27f6d07999353660607afc879933d1f6dd5468398f244bd",
                         "94c3fbad3cfcbcc79b35b58a12deb2c81010c604b611c363ee93f795135f0339"),
    "momd_s_blob_restart": ("e1dfbb1980d757c2204278f970151e81e83b30d04ed712b84dceabda454e3026",
                            "4aea1a12e25ed2e206293d49ac65704493a6e2c85aa98059c2ce40bb4012f681"),
    "momd_s_mixed_grid": ("2ed3571655ea15b48a781b7a70711af22dc386ee8e988993c1350a69d48dd57c",
                          "e3226ee668b59657b2279d63cdc8375f396412e11fdaf0367ac0ae6fc22ffd13"),
    "momd_s_lowerbound_poly1": ("3cef3b7067854a4a641cf6b0cbdb6ef4dcd112e5a66710225053c1ca92e56def",
                                "aef3fbd3701440270c570e07a69b73969ebf2b6d0440018d23defaf55536a2fe"),
    "momd_h_blob_half": ("23790523f1b63d328a9a310bab19513ef7544b6269a7fe669ac5fd821f8ecdee",
                         "9421170de3ca1626ee7a8b3db317bd7f5fceee1d6fc5ff1738fe5924157403a2"),
    "momd_h_blob_restart": ("6ddb0f68f35828c5659015f207c6f165a5f5956be56b2be2c0ce9b03746bb3b0",
                            "c0825078fa28325e10b86c23d447c8409da7a9d7b1631fbfa737e0259c8a2d8a"),
    "momd_h_lowerbound_poly1": ("93f770eabdd06c43e3edc0c12ae101c94cc002776665a2917d1d0952954f9f32",
                                "4792356af5fdb503301c8d091342ff1144c56e531a218e4c75bbed102690263e"),
    "raker_dense": ("99672cd3c2f7980a16a9ce883d7b06bceb400daa0f11c51b6959be99b4dfa156",
                    "0f464123295e64f285bb9a82eca4542beefecf8d2e6a56f287dd5c2940975cc5"),
    "raker_dense_reg": ("c6ce9676332b1bd6a87871a68cc40b1b5bafa34b091c4cc02e1b63a81635cf07",
                        "cd18db3ad0ecc470804d6d25441f7c43de5d1dfc5f819d110d49748b349b32dd"),
}

# the pairs that move off the X86_V4 loops; a case not named keeps its pair in DIGESTS
_NO_AVX512 = {
    "momd_s_blob_half": ("46eb04b01684a589bb3803cf9370f144ce9b6d9581f851135ed50c21c9a8fb75",
                         "e18baeed1e148356a7137df5c8a56e080ef058b8df784c2b1e3baf4bb7304e45"),
    "momd_s_blob_restart": ("7161860cb64722d42f76df607d4a19438d884e4801e6c843ce5bc709e8aa9636",
                            "7870c8255cf7f66a78eaf6aea93656f3131fc54a7bbe27f6ac6f3aa6fa9655dc"),
    "momd_s_mixed_grid": ("d35b57dcf717c8745eb0931f631f888894ce23039c3e26fd46537e551e126909",
                          "e3226ee668b59657b2279d63cdc8375f396412e11fdaf0367ac0ae6fc22ffd13"),
    "momd_h_blob_half": ("7a299c63a96950fc378f2ad220fabfdfc8ee39210d4e0bf4b602696027cc9f39",
                         "0c68b8a5b7387fb8ea57bb081fe9bda06f848f26bee8b0282b428bed7331ade0"),
    "momd_h_blob_restart": ("b0cf68141e1875aba30249ecef00e2d0b4bbcf9a0c4863e4ded4b2278b1dbf9f",
                            "7b7bcd86079138aab225686ee3e64f7042e7d44f12756ab285169ebf7932ec8a"),
    "raker_dense": ("68b58f88a7d13ee59a08726273fcb824e5d19120bcf07da21c54445096d9cf1f",
                    "383df7d6196fa62e036c1e375cd14516e6e54b838699bfaef20b8902716571f0"),
    "raker_dense_reg": ("efb0a62a9a75eb19dae9c56722b51fa1f3b9dd44e8a7eb0869c8a008b0024d30",
                        "d6488583262ec587e1ea0f761ba4f1e30f2df6e5b8888401110ff610708e150b"),
}
TARGET_DIGESTS = {
    ("X86_V4", "X86_V4"): {},
    ("X86_V3", "baseline(X86_V2)"): _NO_AVX512,
    ("baseline(X86_V2)", "baseline(X86_V2)"): _NO_AVX512,
}


def dispatch_target() -> tuple[str, str]:
    """The CPU targets numpy runs float64 ``exp`` and ``tan`` on here."""
    from numpy.lib.introspect import opt_func_info

    info = opt_func_info(func_name="^(exp|tan)$", signature="float64")
    return info["exp"]["dd"]["current"], info["tan"]["dd"]["current"]


def expected(name: str) -> tuple[str, str]:
    """The recorded digest pair of case ``name`` for this host's dispatch target."""
    target = dispatch_target()
    if target not in TARGET_DIGESTS:
        pytest.fail(f"no golden digests recorded for numpy's float64 exp on {target[0]} and tan on {target[1]}")
    return TARGET_DIGESTS[target].get(name, DIGESTS[name])


def build_case(name: str):
    """(learner, (X, y)) of a selector or raker case."""
    if name in RAKER_CASES:
        (X, y), kw = RAKER_CASES[name]
        return RakerBaseline(RakerConfig(kernels=GRID, dim=X.shape[1], **kw)), (X, y)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return CASES[name]()


def trace(name: str):
    """((records digest, state digest), the branches and removal the case reached)."""
    learner, (X, y) = build_case(name)
    h = hashlib.sha256()
    reached = set()

    def record(rec):
        for field in dataclasses.fields(rec):
            v = getattr(rec, field.name)
            if isinstance(v, np.ndarray):
                h.update(repr((field.name, v.dtype.str, v.shape)).encode())
                h.update(np.ascontiguousarray(v).tobytes())
            else:
                h.update(repr((field.name, v.hex() if isinstance(v, float) else v)).encode())
        reached.update(rec.branch or ())
        if rec.removed is not None and rec.removed.any():
            reached.add("removed")

    _, cum_loss = run_stream(learner, X, y, record)
    h.update(cum_loss.hex().encode())
    return (h.hexdigest(), state_digest(learner)), reached


@pytest.mark.parametrize("name", sorted(CASES) + sorted(RAKER_CASES))
def test_golden_trace(name):
    digests, reached = trace(name)
    if name in CASES:
        assert REQUIRED <= reached, f"{name} reached only {sorted(reached)}"
    assert digests == expected(name)


if __name__ == "__main__":
    print(f"# numpy float64 exp on {dispatch_target()[0]}, tan on {dispatch_target()[1]}")
    for case in (*CASES, *RAKER_CASES):
        (records, state), reached = trace(case)
        print(f'    "{case}": ("{records}",\n{" " * (len(case) + 9)}"{state}"),  # reaches {sorted(reached)}')
