"""Mobius maps: action, orders, fixed points, orbits, closed-form formulas."""

import random
from itertools import product

import pytest

from agcyclic import GF, INF, MobiusMap, order_triangular, orbit_difference
from agcyclic.pgl2 import all_pgl2, geometric_sum, triangular_params
from oracles import (
    apply_inverse_by_elements,
    fixed_points_by_elements,
    inverse_by_elements,
    normalized_by_elements,
    orbit_by_elements,
    order_by_normalized_products,
    points_equal,
    product_by_elements,
)

F4 = GF(2, 2)
F5 = GF(5)
F7 = GF(7)
B = F4.generator


@pytest.mark.parametrize("field", [F4, F7, GF(3, 2)], ids=repr)
def test_projective_points_compare_with_eq(field):
    points = [field.from_value(v) for v in range(field.q)] + [INF]
    for s in points:
        for t in points:
            same = points_equal(s, t)
            assert (s == t) is same and (s != t) is (not same)
            assert (s in {t}) is same
        assert {t for t in points if points_equal(s, t)} == {s}


def test_normalization_canonical():
    a = MobiusMap.from_string(F5, "2,4;0,2")
    b = MobiusMap.from_string(F5, "1,2;0,1")
    assert a == b
    with pytest.raises(ValueError):
        MobiusMap.from_string(F5, "1,2;2,4")  # determinant zero


LAW_FIELDS = [GF(2), GF(3), F4, F5, F7, GF(2, 3), GF(3, 2), GF(2, 4)]


def values(entries):
    return tuple(e.val for e in entries)


@pytest.mark.parametrize("field", LAW_FIELDS, ids=repr)
def test_int_group_law_matches_element_oracle(field):
    """Products, inverses, equality, hashes and printing of the int-backed
    maps against FieldElement normalization: every pair of PGL2(q) for
    q <= 5, a seeded sample of pairs above."""
    group = list(all_pgl2(field))
    assert len(group) == field.q * (field.q ** 2 - 1) == len(set(group))
    if field.q <= 5:
        maps, pairs = group, list(product(group, repeat=2))
    else:
        rng = random.Random(f"pgl2-law:{field.q}")
        maps = rng.sample(group, 60)
        pairs = [tuple(rng.sample(group, 2)) for _ in range(300)] + [(x, x) for x in maps[:20]]
    elements = {x: (x.a, x.b, x.c, x.d) for x in maps + [y for pair in pairs for y in pair]}
    for x in maps:
        ex = elements[x]
        assert normalized_by_elements(*ex) == ex
        assert x.inverse().entries == values(inverse_by_elements(ex))
        assert hash(x) == hash((field.p, field.m) + values(ex))
        assert str(x) == "{},{};{},{}".format(*ex)
        assert repr(x) == "[[{}, {}], [{}, {}]]".format(*ex)
    for x, y in pairs:
        ex, ey = elements[x], elements[y]
        assert (x * y).entries == values(product_by_elements(ex, ey))
        assert (x == y) is (ex == ey)


@pytest.mark.parametrize("field", LAW_FIELDS, ids=repr)
def test_from_values_matches_element_constructor(field):
    """MobiusMap.from_values and the FieldElement constructor normalize every
    4-tuple alike for q <= 5 (a seeded sample with planted singular matrices
    above), and refuse a zero determinant with the same message."""
    if field.q <= 5:
        tuples = list(product(range(field.q), repeat=4))
    else:
        rng = random.Random(f"pgl2-values:{field.q}")
        tuples = [tuple(rng.randrange(field.q) for _ in range(4)) for _ in range(200)]
        for a, b, k in ((rng.randrange(field.q), rng.randrange(field.q),
                         rng.randrange(field.q)) for _ in range(40)):
            tuples.append((a, b, field.mul_i(k, a), field.mul_i(k, b)))
    singular = 0
    for vals in tuples:
        elems = [field.from_value(v) for v in vals]
        try:
            expected = values(normalized_by_elements(*elems))
        except ValueError as exc:
            singular += 1
            with pytest.raises(ValueError, match=str(exc)):
                MobiusMap(*elems)
            with pytest.raises(ValueError, match=str(exc)):
                MobiusMap.from_values(field, *vals)
            continue
        assert MobiusMap(*elems).entries == MobiusMap.from_values(field, *vals).entries == expected
    assert 0 < singular < len(tuples)


def test_mixed_fields_are_refused():
    with pytest.raises(ValueError, match="matrix entries from mixed fields"):
        MobiusMap(F5.one, F7.zero, F5.zero, F5.one)
    with pytest.raises(ValueError, match="matrix entries from mixed fields"):
        normalized_by_elements(F5.one, F7.zero, F5.zero, F5.one)
    with pytest.raises(ValueError, match="mixed fields in matrix product"):
        MobiusMap.identity(F5) * MobiusMap.identity(F7)


def test_apply_inverse_cases():
    matrix = MobiusMap.from_string(F4, "1,1;b,0")
    assert matrix.apply_inverse(F4.one) == B
    identity = MobiusMap.identity(F5)
    for v in range(5):
        assert identity.apply_inverse(F5.from_value(v)) == F5.from_value(v)
    assert identity.apply_inverse(INF) is INF
    scale = MobiusMap.from_string(F5, "1,0;0,2")
    assert scale.apply_inverse(F5.one) == F5.element(2)
    # infinity cases
    assert scale.apply_inverse(INF) is INF
    swap = MobiusMap.from_string(F5, "0,1;1,0")
    assert swap.apply_inverse(INF) == F5.zero
    assert swap.apply_inverse(F5.zero) is INF


def test_order_examples():
    assert MobiusMap.from_string(F4, "1,1;b,0").order() == 5
    assert MobiusMap.identity(F5).order() == 1
    scale = MobiusMap.from_string(F5, "1,0;0,2")
    # oracle: explicit matrix powers
    acc = scale
    n = 1
    while not acc.is_identity():
        acc = acc * scale
        n += 1
    assert scale.order() == n == 4


def test_order_triangular_matches_order_exhaustively():
    for field in (F4, F5, GF(3, 2)):
        p = field.p
        for a_val in range(1, field.q):
            for b_val in range(field.q):
                if a_val == 1 and b_val == 0:
                    continue
                matrix = MobiusMap(
                    field.one, -field.from_value(b_val), field.zero, field.from_value(a_val)
                )
                expected = p if a_val == 1 else field.from_value(a_val).order()
                assert order_triangular(matrix) == expected == matrix.order()
    with pytest.raises(ValueError):
        order_triangular(MobiusMap.identity(F5))
    with pytest.raises(ValueError):
        order_triangular(MobiusMap.from_string(F5, "1,0;1,1"))  # not triangular


@pytest.mark.parametrize("field", [F4, F5, F7, GF(3, 2)], ids=repr)
def test_int_walks_match_element_oracles_on_all_of_pgl2(field):
    points = list(field.elements()) + [INF]
    group = list(all_pgl2(field))
    assert len(group) == field.q * (field.q ** 2 - 1)
    for matrix in group:
        assert matrix.order() == order_by_normalized_products(matrix)
        fixed = matrix.fixed_points()
        assert fixed == fixed_points_by_elements(matrix)
        for t in points:
            assert points_equal(matrix.apply_inverse(t), apply_inverse_by_elements(matrix, t))
            if matrix.is_identity() or t in fixed:
                with pytest.raises(ValueError):
                    matrix.orbit(t)
                continue
            orbit, expected = matrix.orbit(t), orbit_by_elements(matrix, t)
            assert len(orbit) == len(expected)
            assert all(points_equal(s, u) for s, u in zip(orbit, expected))


def test_fixed_points():
    assert MobiusMap.from_string(F5, "1,1;0,1").fixed_points() == {INF}
    identity_fixed = MobiusMap.identity(F5).fixed_points()
    assert len(identity_fixed) == 6  # all of the projective line
    scale = MobiusMap.from_string(F5, "1,0;0,2")
    assert scale.fixed_points() == {F5.zero, INF}


def test_orbit_examples():
    matrix = MobiusMap.from_string(F4, "1,1;b,0")
    orbit = matrix.orbit(F4.one)
    expected = (F4.one, B, B + F4.one, INF, F4.zero)
    assert len(orbit) == 5
    assert all(points_equal(s, t) for s, t in zip(orbit, expected))

    scale3 = MobiusMap.from_string(F7, "1,0;0,3")
    assert [t.val for t in scale3.orbit(F7.one)] == [1, 3, 2, 6, 4, 5]

    shift = MobiusMap.from_string(F5, "1,4;0,1")  # sigma(x) = x - 1, orbit adds 1
    assert [t.val for t in shift.orbit(F5.zero)] == [0, 1, 2, 3, 4]

    with pytest.raises(ValueError):
        scale3.orbit(F7.zero)  # fixed point
    with pytest.raises(ValueError):
        MobiusMap.identity(F5).orbit(F5.one)


def test_orbit_structure_sweep():
    for matrix in all_pgl2(F7):
        if matrix.is_identity():
            continue
        m = matrix.order()
        fixed = matrix.fixed_points()
        for v in range(3):
            seed = F7.from_value(v)
            if any(points_equal(seed, f) for f in fixed):
                continue
            orbit = matrix.orbit(seed)
            assert m % len(orbit) == 0
            assert len(set(str(t) for t in orbit)) == len(orbit)
            assert points_equal(matrix.apply_inverse(orbit[-1]), orbit[0])
            assert not any(
                points_equal(t, f) for t in orbit for f in fixed
            )
            assert matrix.isotropy_order(seed) * len(orbit) == m


def test_isotropy_order():
    matrix = MobiusMap.from_string(F4, "1,1;b,0")
    assert matrix.isotropy_order(F4.one) == 1
    scale = MobiusMap.from_string(F5, "1,0;0,2")
    assert scale.isotropy_order(F5.zero) == scale.order() == 4
    # brute oracle over GF(9): count powers fixing the point
    f9 = GF(3, 2)
    mat = MobiusMap.from_string(f9, "1,0;0,b")
    alpha = f9.one
    m = mat.order()
    count = 0
    power = MobiusMap.identity(f9)
    for _ in range(m):
        if points_equal(power.apply_inverse(alpha), alpha):
            count += 1
        power = power * mat
    assert mat.isotropy_order(alpha) == count


def test_orbit_difference_examples():
    # GF(5), a=2, b=1: matrix [[1,-1],[0,2]], orbit map t -> 2t + 1
    matrix = MobiusMap(F5.one, -F5.one, F5.zero, F5.element(2))
    orbit = matrix.orbit(F5.one)
    assert [t.val for t in orbit] == [1, 3, 2, 0]
    assert orbit_difference(matrix, F5.one, 1, 3) == orbit[2] - orbit[0]
    # one-step recurrence
    for i in range(1, len(orbit)):
        assert orbit_difference(matrix, F5.one, i, i + 1) == orbit[i] - orbit[i - 1]
    # GF(7), a=3, b=0
    scale3 = MobiusMap.from_string(F7, "1,0;0,3")
    orb = scale3.orbit(F7.one)
    assert orbit_difference(scale3, F7.one, 1, 2) == orb[1] - orb[0] == F7.element(2)
    with pytest.raises(ValueError):
        orbit_difference(matrix, F5.one, 2, 1)
    with pytest.raises(ValueError):
        orbit_difference(matrix, F5.one, 1, 9)


def test_orbit_difference_exhaustive_small():
    for field in (F5, F4):
        for a_val in range(1, field.q):
            for b_val in range(field.q):
                if a_val == 1 and b_val == 0:
                    continue
                matrix = MobiusMap(
                    field.one, -field.from_value(b_val), field.zero, field.from_value(a_val)
                )
                a, b = triangular_params(matrix)
                for v in range(field.q):
                    alpha = field.from_value(v)
                    if (b + (a - field.one) * alpha).is_zero():
                        continue
                    orbit = matrix.orbit(alpha)
                    for i in range(1, len(orbit) + 1):
                        for j in range(i + 1, len(orbit) + 1):
                            assert orbit_difference(matrix, alpha, i, j) == (
                                orbit[j - 1] - orbit[i - 1]
                            )


def test_geometric_sum_uniform_at_one():
    one = F5.one
    assert geometric_sum(one, 5).is_zero()  # 5 terms of 1 in characteristic 5
    assert geometric_sum(one, 3) == F5.element(3)
    two = F5.element(2)
    assert geometric_sum(two, 4) == F5.element(15 % 5)
