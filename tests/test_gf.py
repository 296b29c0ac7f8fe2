"""Finite field construction, canonical choices, orders, Frobenius orbits."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agcyclic import (
    GF,
    Polynomial,
    find_element_of_order,
    frobenius_orbit,
    parse_field_spec,
    primitive_element,
)
from agcyclic.gf import is_prime
from oracles import (
    add_digitwise,
    is_irreducible_by_trial_division,
    is_primitive_by_schoolbook,
    log_tables_by_schoolbook,
    mul_by_schoolbook,
    neg_digitwise,
)


def prime_powers(limit):
    """(p, m) for every prime power p^m <= limit."""
    return [
        (p, m)
        for p in range(2, limit + 1)
        if is_prime(p)
        for m in range(1, limit.bit_length())
        if p ** m <= limit
    ]


ODD_EXTENSIONS = [(p, m) for p, m in prime_powers(243) if p > 2 and m > 1]


def brute_order(a):
    """Independent oracle: repeated multiplication."""
    acc = a
    t = 1
    while acc != a.field.one:
        acc = acc * a
        t += 1
        assert t <= a.field.q
    return t


def local_is_irreducible(coeffs, p):
    """Independent oracle: trial division by all smaller monic polynomials."""
    deg = len(coeffs) - 1

    def polymod(a, b):
        a = list(a)
        while len(a) >= len(b):
            lead = a[-1] * pow(b[-1], p - 2, p) % p
            for i in range(len(b)):
                a[len(a) - len(b) + i] = (a[len(a) - len(b) + i] - lead * b[i]) % p
            while a and a[-1] == 0:
                a.pop()
            if not a:
                return []
        return a

    for d in range(1, deg):
        for tail in range(p ** d):
            div = []
            t = tail
            for _ in range(d):
                div.append(t % p)
                t //= p
            div.append(1)
            if not polymod(coeffs, div):
                return False
    return True


def test_canonical_modulus_gf4():
    field = GF(2, 2)
    assert field.modulus == (1, 1, 1)  # x^2 + x + 1
    b = field.generator
    assert (b * b + b + field.one).is_zero()


def test_canonical_modulus_gf9_by_scan():
    # oracle: first monic irreducible of degree 2 over GF(3) in tuple order
    found = None
    for a1 in range(3):
        for a0 in range(3):
            if local_is_irreducible([a0, a1, 1], 3):
                found = (a0, a1, 1)
                break
        if found:
            break
    assert found == (1, 0, 1)  # x^2 + 1
    assert GF(3, 2).modulus == found


def test_prime_field_modulus_is_x():
    assert GF(5).modulus == (0, 1)


def test_explicit_modulus_checked():
    GF(2, 2, (1, 1, 1))
    with pytest.raises(ValueError):
        GF(2, 2, (1, 0, 1))  # x^2 + 1 = (x+1)^2
    with pytest.raises(ValueError):
        GF(2, 2, (1, 1))  # wrong degree
    with pytest.raises(ValueError):
        GF(4, 1)  # 4 is not prime
    with pytest.raises(ValueError):
        GF(2, 17)  # q > 2^16


def test_field_construct_deterministic():
    f1, f2 = GF(3, 2), GF(3, 2)
    assert f1 == f2
    assert f1._exp == f2._exp
    assert f1.modulus == f2.modulus


@pytest.mark.parametrize("p,m", [(2, 2), (5, 1), (3, 2), (2, 4)])
def test_field_axioms_exhaustive(p, m):
    field = GF(p, m)
    elems = list(field.elements())
    sample = elems if field.q <= 9 else elems[:: max(1, field.q // 7)]
    for a in sample:
        for b in sample:
            assert a + b == b + a
            assert a * b == b * a
            for c in sample[:4]:
                assert (a + b) + c == a + (b + c)
                assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero()
        if not a.is_zero():
            assert (a * a.inverse()) == field.one
            assert a ** (field.q - 1) == field.one


def test_element_order_examples():
    assert GF(7).one.order() == 1
    a = GF(7).element(3)
    assert a.order() == brute_order(a) == 6
    b = GF(2, 2).generator
    assert b.order() == brute_order(b) == 3


def test_element_order_divides_group_order():
    for field in (GF(2, 3), GF(3, 2), GF(11)):
        for e in field.units():
            assert e.order() == brute_order(e)
            assert (field.q - 1) % e.order() == 0
    with pytest.raises(ValueError):
        GF(7).zero.order()


def test_primitive_element_examples():
    f4 = GF(2, 2)
    b = f4.generator
    # both b and b+1 are primitive; b is canonically smaller
    assert b.order() == (b + f4.one).order() == 3
    assert primitive_element(f4) == b
    assert primitive_element(GF(5)) == GF(5).element(2)
    assert primitive_element(GF(2)) == GF(2).one


def test_frobenius_orbit():
    f4 = GF(2, 2)
    b = f4.generator
    orbit = frobenius_orbit(b)
    assert orbit == (b, b + f4.one)
    for a in GF(5).elements():
        assert frobenius_orbit(a) == (a,)
    f8 = GF(2, 3)
    assert len(frobenius_orbit(primitive_element(f8))) == 3


def test_frobenius_orbit_gives_minimal_polynomial_roots():
    field = GF(3, 2)
    for e in field.elements():
        orbit = frobenius_orbit(e)
        # expand prod (x - c) over the orbit; coefficients must be prime-field
        coeffs = [field.one]
        for c in orbit:
            nxt = [field.zero] * (len(coeffs) + 1)
            for i, co in enumerate(coeffs):
                nxt[i + 1] = nxt[i + 1] + co
                nxt[i] = nxt[i] - co * c
            coeffs = nxt
        assert all(co.val < field.p for co in coeffs)
        roots = [
            x for x in field.elements()
            if sum((co * x ** i for i, co in enumerate(coeffs)), field.zero).is_zero()
        ]
        assert set(roots) == set(orbit)


def test_find_element_of_order():
    assert find_element_of_order(GF(7), 6) == GF(7).element(3)
    assert find_element_of_order(GF(9 // 3, 2), 1) == GF(3, 2).one
    with pytest.raises(ValueError):
        find_element_of_order(GF(5), 3)
    # canonically smallest: every smaller value has a different order
    f9 = GF(3, 2)
    e = find_element_of_order(f9, 4)
    for v in range(1, e.val):
        assert f9.from_value(v).order() != 4
    for field in (GF(13), GF(2, 4), GF(3, 3), GF(5, 2)):
        for n in (n for n in range(1, field.q) if (field.q - 1) % n == 0):
            smallest = next(v for v in range(1, field.q) if brute_order(field.from_value(v)) == n)
            assert find_element_of_order(field, n).val == smallest


def test_string_round_trip():
    for field in (GF(7), GF(2, 3), GF(3, 2)):
        for e in field.elements():
            assert field.parse(str(e)) == e
    assert str(GF(2, 2).generator + GF(2, 2).one) == "b+1"
    with pytest.raises(ValueError):
        GF(5).parse("inf")


def test_parse_field_spec():
    assert parse_field_spec("7").q == 7
    assert parse_field_spec("2^4").q == 16
    assert parse_field_spec("9").q == 9 and parse_field_spec("9").p == 3
    with pytest.raises(ValueError):
        parse_field_spec("6")


# ---------------------------------------------------------------------------
# table build against the schoolbook oracle
# ---------------------------------------------------------------------------

def test_tables_equal_schoolbook_oracle_up_to_1024():
    for p, m in prime_powers(1024):
        field = GF(p, m)
        gen, exp, log = log_tables_by_schoolbook(p, field.modulus)
        assert (field._gen_val, field._exp, field._log) == (gen, exp, log), (p, m)


def test_canonical_moduli_are_first_irreducibles_up_to_1024():
    for p, m in prime_powers(1024):
        if m == 1:
            continue
        prime = GF(p)
        first = next(
            tail for tail in range(p ** m)
            if is_irreducible_by_trial_division(
                Polynomial.from_values(prime, [tail // p ** i % p for i in range(m)] + [1])
            )
        )
        assert GF(p, m).modulus == tuple(first // p ** i % p for i in range(m)) + (1,)


@pytest.mark.parametrize("p,m", [(2, 16), (3, 10), (65521, 1)])
def test_large_field_tables_spot_checked(p, m):
    field = GF(p, m)
    q, gen, exp = field.q, field._gen_val, field._exp
    assert sorted(exp) == list(range(1, q))
    assert all(field._log[v] == i for i, v in enumerate(exp))
    start = random.Random(q).randrange(q - 1)
    for i in range(start, start + 2000):
        nxt = exp[(i + 1) % (q - 1)]
        assert mul_by_schoolbook(exp[i % (q - 1)], gen, p, field.modulus) == nxt
    assert is_primitive_by_schoolbook(gen, p, field.modulus)
    assert not any(is_primitive_by_schoolbook(v, p, field.modulus) for v in range(2, gen))


# ---------------------------------------------------------------------------
# Zech addition against digitwise addition
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,m", ODD_EXTENSIONS, ids=lambda v: str(v))
def test_zech_add_neg_sub_exhaustive(p, m):
    field = GF(p, m)
    for a in range(field.q):
        assert field.neg_i(a) == neg_digitwise(a, p)
        for b in range(field.q):
            total = add_digitwise(a, b, p)
            assert field.add_i(a, b) == total
            assert field.sub_i(total, b) == a


@pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (5, 2), (3, 4), (7, 2), (3, 5), (7, 3), (3, 10),
                                 (7, 1), (2, 8)])
def test_np_add_and_np_mul_match_scalar(p, m):
    field = GF(p, m)
    rng = np.random.default_rng(field.q)
    x = rng.integers(0, field.q, (40, 25))
    y = rng.integers(0, field.q, (40, 25))
    x[0], y[1] = 0, 0  # rows with zero operands
    y[2] = [field.neg_i(int(v)) for v in x[2]]  # rows summing to zero
    assert field.np_add(x, y).tolist() == [
        [add_digitwise(int(a), int(b), p) for a, b in zip(r, s)] for r, s in zip(x, y)
    ]
    assert field.np_mul(x, y).tolist() == [
        [field.mul_i(int(a), int(b)) for a, b in zip(r, s)] for r, s in zip(x, y)
    ]
    assert field.np_add(x, y[:1]).shape == x.shape  # broadcasting


# ---------------------------------------------------------------------------
# the row kernel axpy_i against scalar add_i and mul_i
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (7, 1), (2, 3), (3, 2), (5, 2), (3, 3)],
                         ids=lambda v: str(v))
def test_axpy_matches_scalar_ops_exhaustive(p, m):
    field = GF(p, m)
    y = [u for u in range(field.q) for _ in range(field.q)]
    x = [v for _ in range(field.q) for v in range(field.q)]
    for a in range(field.q):
        expected = [field.add_i(u, field.mul_i(a, v)) for u, v in zip(y, x)]
        assert field.axpy_i(y, a, x) == expected


@pytest.mark.parametrize("field", [GF(2, 16), GF(3, 10), GF(65521)], ids=repr)
@settings(max_examples=150)
@given(data=st.data())
def test_axpy_property_with_zero_and_cancelling_entries(field, data):
    n = data.draw(st.integers(1, 12))
    entries = st.lists(st.integers(0, field.q - 1), min_size=n, max_size=n)
    a, y, x = data.draw(st.integers(0, field.q - 1)), data.draw(entries), data.draw(entries)
    kinds = data.draw(st.lists(st.sampled_from("fcxy"), min_size=n, max_size=n))
    for i, kind in enumerate(kinds):
        if kind == "c":  # y + a*x = 0
            y[i] = field.neg_i(field.mul_i(a, x[i]))
        elif kind == "x":
            x[i] = 0
        elif kind == "y":
            y[i] = 0
    before = list(y)
    expected = [field.add_i(u, field.mul_i(a, v)) for u, v in zip(y, x)]
    assert field.axpy_i(y, a, x) == expected
    assert y == before


# ---------------------------------------------------------------------------
# field axioms as properties, one field per shape class
# ---------------------------------------------------------------------------

AXIOM_FIELDS = [GF(13), GF(65521), GF(2, 8), GF(3, 5), GF(7, 2), GF(2, 16)]


@pytest.mark.parametrize("field", AXIOM_FIELDS, ids=repr)
@settings(max_examples=150)
@given(data=st.data())
def test_field_axioms_property(field, data):
    a, b, c = (data.draw(st.integers(0, field.q - 1)) for _ in range(3))
    add, mul, neg = field.add_i, field.mul_i, field.neg_i
    assert add(a, b) == add(b, a) and mul(a, b) == mul(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, 0) == a and mul(a, 1) == a and mul(a, 0) == 0
    assert add(a, neg(a)) == 0 and field.sub_i(add(a, b), b) == a
    if a:
        assert mul(a, field.inv_i(a)) == 1
        assert field.div_i(mul(a, b), a) == b
        assert field.pow_i(a, field.q - 1) == 1
    xs, ys = np.array([a, b, c]), np.array([b, c, a])
    assert field.np_add(xs, ys).tolist() == [add(a, b), add(b, c), add(c, a)]
    assert field.np_mul(xs, ys).tolist() == [mul(a, b), mul(b, c), mul(c, a)]
