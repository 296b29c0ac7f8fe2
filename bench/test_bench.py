"""Tests of the benchmark itself: every checker accepts a correct result and
rejects a corrupted one, the oracle agrees with the library where both
define a value, and tracing reaches every layer.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import sys
from itertools import permutations, product
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import SPAN_NAMES, Tracer  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return wl.Library()


def first(workload, pred, cycles=6):
    for j in range(cycles):
        for case in workload.cycle(j):
            if pred(case):
                return case
    raise AssertionError("no case matches")


# -- oracle -------------------------------------------------------------------

@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (3, 4), (2, 8)])
def test_oracle_field_matches_library(lib, p, m):
    F, G = oracle.Field(p, m), lib.field(p, m)
    assert F.modulus == tuple(G.modulus)
    for a, b in product(range(0, F.q, max(1, F.q // 23)), repeat=2):
        assert F.mul(a, b) == G.mul_i(a, b)
        assert F.add(a, b) == G.add_i(a, b)
    assert all(F.format(a) == G.format_value(a) for a in range(F.q))


def test_mds_formula_matches_brute_force():
    F = oracle.Field(5)
    rows = oracle.grs_rows(F, [1, 2, 3, 4], [1, 3, 2, 4], 2)
    counts = [0] * 5
    for c0, c1 in product(range(5), repeat=2):
        word = [F.add(F.mul(c0, x), F.mul(c1, y)) for x, y in zip(*rows)]
        counts[sum(1 for v in word if v)] += 1
    assert counts == oracle.mds_weight_distribution(5, 4, 2)


def test_point_set_oracle():
    F = oracle.Field(11)
    S1 = [0, 1, 2, 3, 5, 8]
    A = (2, 3, 1, 5)  # determinant 7; sends no point of S1 to infinity
    image = [oracle.apply(F, A, t) for t in S1]
    assert oracle.projectively_equivalent(F, S1, image)
    S2 = [0, 1, 2, 3, 4, 5]
    assert oracle.projectively_equivalent(F, S1, S2) == oracle.projectively_equivalent(F, S2, S1)


def test_permutation_at_follows_the_search_order():
    order = list(permutations(range(4)))  # the library's search order
    assert [wl.permutation_at(4, rank) for rank in range(24)] == order


# -- checkers accept correct results and reject corrupted ones ---------------------

def test_sweep_checker(lib):
    sweep = wl.Sweep(lib, 11)
    case = first(sweep, lambda c: c["beta_type"] == "finite" and c["split"])
    out = sweep.run(case)
    assert sweep.check(case, out) == []
    assert sweep.check(case, {**out, "cyclic": False})
    assert sweep.check(case, {**out, "transported": [True, False]})
    assert sweep.check({**case, "r": case["r"] + 1}, out)
    assert sweep.check({**case, "canonical": "1,0;0,1"}, out)


def test_enumerate_checker(lib):
    enum = wl.Enumerate(lib, 11)
    case = enum.make(13, 1, 6, 4)
    out = enum.run(case)
    assert enum.check(case, out) == []
    corrupted = out.copy()
    corrupted[3] -= 1
    corrupted[4] += 1
    assert enum.check(case, corrupted)


def test_equiv_checker(lib):
    equiv = wl.Equiv(lib, 11)
    case = first(equiv, lambda c: c["kind"] == "planted" and c["n"] == 6, cycles=1)
    out = equiv.run(case)
    assert equiv.check(case, out) == []
    witness = out["verdict"].witness.copy()
    witness[:, [0, 1]] = witness[:, [1, 0]]
    bad = type(out["verdict"])("EQUIVALENT", witness=witness)
    assert equiv.check(case, {**out, "verdict": bad})
    grs = first(equiv, lambda c: c["kind"] == "grs" and c["n"] == 6, cycles=1)
    out = equiv.run(grs)
    assert equiv.check(grs, out) == []
    flipped = type(out["verdict"])("EQUIVALENT", witness=None)
    assert equiv.check(grs, {**out, "verdict": flipped})


def test_cli_checker(lib):
    cli = wl.Cli(lib, 11)
    cases = cli.cycle(0)
    i = next(i for i, case in enumerate(cases) if case["cmd"] == "construct")
    construct, repeat = cases[i], cases[i + 1]
    out = cli.run(construct)
    assert cli.check(construct, out) == []
    again = cli.run(repeat)
    assert cli.check(repeat, again) == []
    assert cli.check(repeat, {**again, "stdout": again["stdout"] + " "})
    doc = json.loads(out["stdout"])
    doc["d"] += 1
    fresh = {**construct, "first": None}
    assert cli.check(fresh, {**out, "stdout": json.dumps(doc, indent=2)})
    assert cli.check(fresh, {**out, "exit": 1})


# -- tracing ---------------------------------------------------------------------

def test_layer_tour_reaches_every_span(lib):
    tracer = Tracer()
    originals = {name: obj for name, obj in vars(lib.construction).items()}
    tracer.install()
    outcome = run.Outcome()
    for workload, case in wl.layer_tour(lib):
        run.run_op(workload, case, outcome, tracer)
    tracer.uninstall()
    assert outcome.failed == 0
    metrics = tracer.metrics()
    untouched = [name for name in SPAN_NAMES if metrics[f"{name}.calls"][0] == 0]
    assert untouched == []
    assert all(vars(lib.construction)[name] is obj for name, obj in originals.items())


def test_tail_has_ten_samples_beyond():
    value, pct = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0


def test_search_stops_at_the_planted_rank(lib):
    equiv = wl.Equiv(lib, 5)
    cases = [c for c in equiv.cycle(0) if c["kind"] == "planted"]
    tracer = Tracer()
    tracer.install()
    try:
        tried = []
        for case in cases:
            before = tracer.metrics()["lincode.perms_tried"][0]
            equiv.run(case)
            tried.append(tracer.metrics()["lincode.perms_tried"][0] - before)
    finally:
        tracer.uninstall()
    assert tried == [case["rank"] + 1 for case in cases]
