"""Micro-cases for the gf layer, whose scalar and numpy operations are too
small to trace: the time of one call, or of one array element, taken as the
median of several timed repeats over seeded random operands."""

from __future__ import annotations

import random
import statistics
import time

import numpy as np

REPEATS = 7
SCALAR_CALLS = 20000
ARRAY_SIZE = 1 << 16
BUILD_REPEATS = 3


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _scalar_ns(fn, q: int, rng: random.Random, wrap=int) -> float:
    pairs = [(wrap(rng.randrange(q)), wrap(rng.randrange(q))) for _ in range(SCALAR_CALLS)]

    def loop():
        for a, b in pairs:
            fn(a, b)

    return _median_time(loop, REPEATS) / SCALAR_CALLS * 1e9


def _array_ns(fn, q: int, rng: np.random.Generator) -> float:
    x = rng.integers(0, q, ARRAY_SIZE, dtype=np.int64)
    y = rng.integers(0, q, ARRAY_SIZE, dtype=np.int64)
    return _median_time(lambda: fn(x, y), REPEATS) / ARRAY_SIZE * 1e9


def gf_metrics(lib, seed: int) -> dict[str, tuple[float, str]]:
    rng = random.Random(f"micro:{seed}")
    nprng = np.random.default_rng(rng.randrange(1 << 32))
    f7, f9, f27, f256 = (lib.field(p, m) for p, m in ((7, 1), (3, 2), (3, 3), (2, 8)))
    out: dict[str, tuple[float, str]] = {}
    for name, F in (("q7", f7), ("q9", f9), ("q256", f256)):
        out[f"gf.add_i.{name}.ns"] = (_scalar_ns(F.add_i, F.q, rng), "ns")
    out["gf.mul_i.q9.ns"] = (_scalar_ns(f9.mul_i, 9, rng), "ns")
    out["gf.element_add.q9.ns"] = (
        _scalar_ns(lambda a, b: a + b, 9, rng, wrap=f9.from_value), "ns")
    for name, F in (("q7", f7), ("q9", f9), ("q27", f27), ("q256", f256)):
        out[f"gf.np_add.{name}.ns_per_elem"] = (_array_ns(F.np_add, F.q, nprng), "ns")
    out["gf.np_mul.q9.ns_per_elem"] = (_array_ns(f9.np_mul, 9, nprng), "ns")
    for p, m in ((2, 16), (3, 10)):
        ms = _median_time(lambda: lib.gf.GF(p, m), BUILD_REPEATS) * 1e3
        out[f"gf.build.q{p ** m}.ms"] = (ms, "ms")
    return out
