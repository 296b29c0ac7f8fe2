"""Invariant generators and fiber splitting."""

from collections import Counter

import pytest

from agcyclic import (
    GF,
    INF,
    MobiusMap,
    Polynomial,
    RationalFunction,
    fiber_decomposition,
    find_element_of_order,
    invariant_generator,
    is_infinite,
    mobius_substitute,
    splitting_report,
)
from agcyclic.pgl2 import all_pgl2
from oracles import invariant_generator_eagerly

F4 = GF(2, 2)
F5 = GF(5)
F7 = GF(7)


def test_translation_norm_generator():
    shift = MobiusMap.from_string(F5, "1,1;0,1")  # order 5
    gen = invariant_generator(shift)
    assert gen.method == "norm"  # the trace of x over a translation is constant
    # oracle: expand prod_{i} (x + i) directly
    prod = Polynomial.one(F5)
    for i in range(5):
        prod = prod * Polynomial(F5, [i, 1])
    assert gen.z == RationalFunction.from_polynomial(prod)
    assert str(gen.z) == "x^5 + 4x"
    assert gen.z.degree == 5


def test_scaling_norm_generator():
    omega = find_element_of_order(F7, 6)
    gen = invariant_generator(MobiusMap.scaling(omega))
    assert gen.method == "norm" and gen.z.degree == 6
    assert gen.z == RationalFunction.from_polynomial(Polynomial(F7, [0, 0, 0, 0, 0, 0, 1]))


def test_inversion_trace_generator():
    swap = MobiusMap.from_string(F5, "0,1;1,0")  # x -> 1/x, order 2
    gen = invariant_generator(swap)
    assert gen.method == "trace"
    assert gen.z == RationalFunction(Polynomial(F5, [1, 0, 1]), Polynomial.x(F5))


def test_generator_is_invariant_and_full_degree():
    matrices = [
        MobiusMap.from_string(F5, "1,1;0,1"),
        MobiusMap.from_string(F7, "1,0;0,3"),
        MobiusMap.from_string(F4, "1,1;b,0"),
        MobiusMap.from_string(F5, "0,1;1,0"),
    ]
    for matrix in matrices:
        gen = invariant_generator(matrix)
        assert gen.m == matrix.order()
        assert gen.z.degree == gen.m
        assert mobius_substitute(gen.z, matrix) == gen.z
    with pytest.raises(ValueError):
        invariant_generator(MobiusMap.identity(F5))


def test_fiber_decomposition_examples():
    shift = MobiusMap.from_string(F5, "1,1;0,1")
    gen = invariant_generator(shift)  # z = x^5 - x
    fiber0 = fiber_decomposition(gen, F5.zero)
    assert all(p.degree == 1 and e == 1 for p, e in fiber0)
    assert len(fiber0) == 5

    omega = find_element_of_order(F7, 6)
    gen6 = invariant_generator(MobiusMap.scaling(omega))  # z = x^6
    fiber_zero = fiber_decomposition(gen6, F7.zero)
    assert [(str(p), e) for p, e in fiber_zero] == [("a=0", 6)]
    fiber_one = fiber_decomposition(gen6, F7.one)
    assert sorted(p.point.val for p, _ in fiber_one) == [1, 2, 3, 4, 5, 6]
    assert all(e == 1 for _, e in fiber_one)
    # fiber over infinity: the lone pole of x^6
    fiber_inf = fiber_decomposition(gen6, INF)
    assert [(str(p), e) for p, e in fiber_inf] == [("inf", 6)]


def test_fiber_degree_sum_all_values():
    for matrix in (
        MobiusMap.from_string(F5, "1,1;0,1"),
        MobiusMap.from_string(F7, "1,0;0,3"),
        MobiusMap.from_string(F4, "1,1;b,0"),
    ):
        gen = invariant_generator(matrix)
        field = matrix.field
        for t in [field.from_value(v) for v in range(field.q)] + [INF]:
            fiber = fiber_decomposition(gen, t)
            assert sum(e * p.degree for p, e in fiber) == gen.m


def test_splitting_report_examples():
    report = splitting_report(MobiusMap.from_string(F7, "1,0;0,3"), F7.one)
    assert report.all_ok
    assert report.value == F7.one
    assert len(report.orbit) == 6

    report = splitting_report(MobiusMap.from_string(F5, "1,1;0,1"), F5.zero)
    assert report.all_ok
    assert report.value == F5.zero  # z = x^5 - x vanishes on the prime field

    # order-5 orbit through infinity over GF(4)
    report = splitting_report(MobiusMap.from_string(F4, "1,1;b,0"), F4.one)
    assert report.all_ok
    assert any(is_infinite(t) for t in report.orbit)
    assert len(report.fiber) == 5


@pytest.mark.parametrize("field", [GF(7), GF(2, 3), GF(3, 2), GF(11)], ids=str)
def test_lazy_candidates_match_eager_oracle(field):
    """The norm and the power sum are built only when the candidates before
    them fall short of degree m; the choice and z are those of building all
    three first, on every map of order m >= 2."""
    methods = Counter()
    for matrix in all_pgl2(field):
        if matrix.order() < 2:
            continue
        try:
            gen = invariant_generator(matrix)
            got = (gen.method, gen.z)
        except ValueError:
            got = None
        try:
            want = invariant_generator_eagerly(matrix)
        except ValueError:
            want = None
        assert got == want, matrix
        methods[got and got[0]] += 1
    assert methods["trace"] and methods["norm"], methods
