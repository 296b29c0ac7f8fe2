"""Finite field construction, canonical choices, orders, Frobenius orbits."""

import pytest

from agcyclic import (
    GF,
    find_element_of_order,
    frobenius_orbit,
    parse_field_spec,
    primitive_element,
)


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
