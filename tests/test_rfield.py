"""Polynomials, rational functions, places, divisors, Riemann-Roch spaces."""

import gc
import random
import weakref
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agcyclic import (
    GF,
    Divisor,
    MobiusMap,
    Place,
    Polynomial,
    RationalFunction,
    divisor_from_string,
    evaluate_at_place,
    factor,
    mobius_substitute,
    place_from_string,
    place_image,
    pole_power_basis,
    rr_basis,
    valuation,
)
from agcyclic.linalg import as_matrix, rref
from agcyclic.rfield import INF, in_riemann_roch_space
from oracles import in_riemann_roch_space_by_factoring, is_irreducible_by_trial_division

F4 = GF(2, 2)
F5 = GF(5)
F7 = GF(7)
B = F4.generator


def x_minus(field, c):
    return Polynomial.x_minus(field.element(c))


def test_poly_arithmetic_and_gcd():
    # gcd(x^2 - 1, x - 1) = x - 1 over GF(5)
    from agcyclic.rfield import poly_gcd

    a = Polynomial(F5, [-1, 0, 1])
    b = Polynomial(F5, [-1, 1])
    assert poly_gcd(a, b) == b
    q, r = divmod(a, b)
    assert r.is_zero() and q == Polynomial(F5, [1, 1])
    assert a == q * b + r


def test_divmod_identity_sweep():
    field = GF(3, 2)
    polys = [
        Polynomial.from_values(field, [v % 9, (v * 2 + 1) % 9, (v * v) % 9, 1])
        for v in range(9)
    ]
    divs = [Polynomial.from_values(field, [(v * 5 + 2) % 9, 1, v % 9 or 1]) for v in range(9)]
    for a in polys:
        for b in divs:
            q, r = divmod(a, b)
            assert a == q * b + r
            assert r.degree < b.degree


def test_is_irreducible_degree2_place_polynomial():
    b2 = B * B
    q = Polynomial(F4, [b2, b2, F4.one])  # x^2 + b^2 x + b^2
    assert q.is_irreducible()
    assert not Polynomial(F4, [1, 0, 1]).is_irreducible()  # x^2+1 = (x+1)^2
    assert Polynomial(F5, [2, 0, 1]).is_irreducible()  # x^2+2 has no roots


@pytest.mark.parametrize("p,m,top", [
    (2, 1, 4), (3, 1, 4), (2, 2, 4), (5, 1, 3), (7, 1, 3), (2, 3, 3), (3, 2, 3),
])
def test_is_irreducible_matches_trial_division(p, m, top):
    field = GF(p, m)
    for d in range(1, top + 1):
        irreducible = 0
        for tail in product(range(field.q), repeat=d):
            f = Polynomial.from_values(field, list(tail) + [1])
            assert f.is_irreducible() == is_irreducible_by_trial_division(f), str(f)
            irreducible += f.is_irreducible()
        # Gauss: d * N_d = sum over e | d of mu(d/e) q^e; for d <= 4 the
        # only squarefree proper quotients d/e are primes and 6 never occurs
        mobius_sum = field.q ** d - sum(field.q ** (d // ell) for ell in (2, 3) if d % ell == 0)
        assert d * irreducible == mobius_sum


def test_quartic_place_over_gf256():
    F256 = GF(2, 8)
    P = place_from_string(F256, "poly:b^3+b^2+b+1,b^3+b+1,b^3+b^2+1,b^2,1")
    assert P.degree == 4 and not P.is_rational
    # a product of two irreducible quadratics: no roots, still reducible
    with pytest.raises(ValueError, match="reducible"):
        place_from_string(F256, "poly:b^4,b^5+b^2,b^5+b^3+b,b^3,1")


def test_roots_exhaustive():
    xc = Polynomial(F7, [-1, 0, 0, 0, 0, 0, 1])  # x^6 - 1
    roots = xc.roots()
    # oracle: direct evaluation of every field element
    expected = [e for e in F7.elements() if (e ** 6 - F7.one).is_zero()]
    assert roots == expected
    assert sorted(r.val for r in roots) == [1, 2, 3, 4, 5, 6]


def test_factor_reconstructs_and_sorts():
    f = Polynomial(F5, [0, -1, 0, 0, 0, 1])  # x^5 - x
    factors = factor(f)
    assert [(str(w), e) for w, e in factors] == [
        ("x", 1), ("x + 1", 1), ("x + 2", 1), ("x + 3", 1), ("x + 4", 1)
    ]
    prod = Polynomial.one(F5)
    for w, e in factors:
        prod = prod * w ** e
    assert prod == f.monic()


FACTOR_FIELDS = [GF(2), GF(3), GF(2, 2), GF(3, 2)]


def draw_polynomial(data, field, degree):
    """A polynomial of the given degree with random coefficients and a
    random nonzero leading one."""
    coeffs = data.draw(st.lists(st.integers(0, field.q - 1), min_size=degree, max_size=degree))
    return Polynomial.from_values(field, coeffs + [data.draw(st.integers(1, field.q - 1))])


@settings(max_examples=120)
@given(data=st.data(), field=st.sampled_from(FACTOR_FIELDS))
def test_factor_round_trip_property(data, field):
    """f of degree <= 8, either random or a product of random powers (so
    that repeated factors and p-th powers are common): the factors are
    irreducible, canonically sorted, and their product is monic f."""
    if data.draw(st.booleans()):
        f = draw_polynomial(data, field, data.draw(st.integers(1, 8)))
    else:
        f = Polynomial.one(field)
        while f.degree < 8:
            d = data.draw(st.integers(1, 8 - f.degree))
            e = data.draw(st.integers(1, (8 - f.degree) // d))
            f = f * draw_polynomial(data, field, d) ** e
            if data.draw(st.booleans()):
                break
    factors = factor(f)
    rebuilt = Polynomial.one(field)
    for w, e in factors:
        assert e >= 1 and w.is_monic()
        assert is_irreducible_by_trial_division(w)
        rebuilt = rebuilt * w ** e
    assert rebuilt == f.monic()
    keys = [(w.degree, w.coeffs) for w, _ in factors]
    assert keys == sorted(set(keys))


def test_factor_repeated_and_pth_power():
    F3 = GF(3)
    g = x_minus(F3, 1) ** 2 * Polynomial(F3, [1, 0, 1])
    assert factor(g) == [(x_minus(F3, 1), 2), (Polynomial(F3, [1, 0, 1]), 1)]
    cube = Polynomial(F3, [1, 0, 1]) ** 3  # derivative vanishes
    assert factor(cube) == [(Polynomial(F3, [1, 0, 1]), 3)]


def test_factor_equal_degree_split():
    # product of two distinct irreducible quadratics over GF(3)
    F3 = GF(3)
    w1, w2 = Polynomial(F3, [1, 0, 1]), Polynomial(F3, [2, 1, 1])
    assert w1.is_irreducible() and w2.is_irreducible()
    assert factor(w1 * w2) == sorted(
        [(w1, 1), (w2, 1)], key=lambda t: (t[0].degree, t[0].coeffs)
    )


def test_mobius_substitute_identity_and_linear():
    f = RationalFunction.x(F5)
    identity = MobiusMap.identity(F5)
    assert mobius_substitute(f, identity) == f
    # sigma(x) = x - 1 sends x - a to x - (a + 1)
    shift = MobiusMap(F5.one, -F5.one, F5.zero, F5.one)
    for a in F5.elements():
        g = RationalFunction.from_polynomial(Polynomial.x_minus(a))
        moved = mobius_substitute(g, shift)
        assert moved == RationalFunction.from_polynomial(Polynomial.x_minus(a + F5.one))
    constant = RationalFunction.constant(F5.one)
    with pytest.raises(ValueError, match="different field"):
        mobius_substitute(constant, MobiusMap.identity(GF(7)))


def test_mobius_substitute_degree2_invariant_place():
    b2 = B * B
    q = Polynomial(F4, [b2, b2, F4.one])
    matrix = MobiusMap.from_string(F4, "1,1;b,0")
    moved = mobius_substitute(RationalFunction.from_polynomial(q), matrix)
    # (b^2 / x^2) * q(x)
    expected = RationalFunction(q.scale(b2.val), Polynomial(F4, [0, 0, 1]))
    assert moved == expected


def test_substitution_composes_with_matrix_product():
    f = RationalFunction(Polynomial(F5, [1, 2, 1]), Polynomial(F5, [3, 1]))
    A = MobiusMap.from_string(F5, "1,2;3,4")
    Bm = MobiusMap.from_string(F5, "2,1;0,1")
    lhs = mobius_substitute(mobius_substitute(f, A), Bm)
    rhs = mobius_substitute(f, A * Bm)
    assert lhs == rhs


def test_place_image_examples():
    b2 = B * B
    Q = Place.from_polynomial(Polynomial(F4, [b2, b2, F4.one]))
    matrix = MobiusMap.from_string(F4, "1,1;b,0")
    assert place_image(matrix, Q) == Q
    assert place_image(MobiusMap.identity(F4), Q) == Q
    shift = MobiusMap(F5.one, -F5.one, F5.zero, F5.one)  # sigma(x) = x - 1
    assert place_image(shift, Place.at(F5.zero)) == Place.at(F5.one)


def test_place_image_composition_and_degree():
    # the attached automorphisms compose contravariantly in the matrix:
    # image under A of the image under B is the image under B*A
    A = MobiusMap.from_string(F5, "1,2;3,4")
    Bm = MobiusMap.from_string(F5, "2,1;0,1")
    places = [Place.at(e) for e in F5.elements()] + [Place.infinity(F5)]
    places.append(Place.from_polynomial(Polynomial(F5, [2, 0, 1])))
    for P in places:
        assert place_image(A, place_image(Bm, P)) == place_image(Bm * A, P)
        assert place_image(A, P).degree == P.degree
    # bijection on degree-2 places
    quadratics = [
        Place.from_polynomial(Polynomial(F5, [c0, c1, 1]))
        for c0 in range(5)
        for c1 in range(5)
        if Polynomial(F5, [c0, c1, 1]).is_irreducible()
    ]
    images = {place_image(A, P) for P in quadratics}
    assert images == set(quadratics)
    # images of irreducible places are irreducible (degrees 2 and 3)
    cubics = [
        Place.from_polynomial(Polynomial(F5, [c0, c1, c2, 1]))
        for c0, c1, c2 in product(range(5), repeat=3)
        if Polynomial(F5, [c0, c1, c2, 1]).is_irreducible()
    ]
    for P in places + quadratics + cubics:
        for M in (A, Bm, Bm * A):
            image = place_image(M, P)
            assert image.is_rational or is_irreducible_by_trial_division(image.poly)


def test_rr_basis_cache_keeps_no_field_alive():
    field = GF(3, 4)
    G = Divisor(field, {Place.at(field.from_value(5)): 3, Place.infinity(field): 2})
    first = [str(f) for f in rr_basis(G)]
    # a cache hit over an equal field gives the same basis over that field
    again = rr_basis(Divisor(GF(3, 4), {Place.at(GF(3, 4).from_value(5)): 3,
                                        Place.infinity(GF(3, 4)): 2}))
    assert [str(f) for f in again] == first and again[0].field == field
    ref = weakref.ref(field)
    del field, G, again
    gc.collect()
    assert ref() is None


def test_rr_basis_polynomials():
    G = Divisor.of_place(Place.infinity(F5), 3)
    basis = rr_basis(G)
    assert [str(f) for f in basis] == ["1", "x", "x^2", "x^3"]


def test_rr_basis_mixed_divisor():
    G = Divisor(F7, {Place.at(F7.zero): 2, Place.infinity(F7): 1})
    basis = rr_basis(G)
    assert [str(f) for f in basis] == ["(1)/(x^2)", "(1)/(x)", "1", "x"]
    assert len(basis) == G.degree + 1
    for f in basis:
        assert in_riemann_roch_space(f, G)


def test_rr_basis_degree2_place_dimension():
    b2 = B * B
    Q = Place.from_polynomial(Polynomial(F4, [b2, b2, F4.one]))
    G = Divisor.of_place(Q, 1)
    basis = rr_basis(G)
    assert len(basis) == 3  # deg G + 1
    for f in basis:
        assert in_riemann_roch_space(f, G)
    # linear independence via evaluation rank at enough rational places
    points = [e for e in F4.elements()] + [None]
    rows = []
    for f in basis:
        row = []
        for t in points:
            place = Place.infinity(F4) if t is None else Place.at(t)
            row.append(evaluate_at_place(f, place).val)
        rows.append(row)
    reduced, _ = rref(F4, as_matrix(F4, rows))
    assert reduced.shape[0] == 3


def test_rr_basis_negative_coefficients():
    # G = 2*P_0 - 1*P_1 + 1*P_inf: members need a zero at 1
    G = Divisor(F5, {Place.at(F5.zero): 2, Place.at(F5.one): -1, Place.infinity(F5): 1})
    basis = rr_basis(G)
    assert len(basis) == G.degree + 1 == 3
    for f in basis:
        assert valuation(f, Place.at(F5.one)) >= 1
        assert in_riemann_roch_space(f, G)
    assert rr_basis(Divisor(F5, {Place.at(F5.zero): -1})) == []


def test_rr_membership_rejects_pole_outside_support():
    G = Divisor.of_place(Place.at(F5.zero), 1)
    assert in_riemann_roch_space(RationalFunction(Polynomial.one(F5), x_minus(F5, 0)), G)
    assert not in_riemann_roch_space(RationalFunction(Polynomial.one(F5), x_minus(F5, 1)), G)
    # the pole sits at a degree-2 place while G only allows rational ones
    quad = Polynomial(F5, [2, 0, 1])
    G2 = Divisor(F5, {Place.at(F5.zero): 2, Place.infinity(F5): 2})
    assert not in_riemann_roch_space(RationalFunction(Polynomial.one(F5), quad), G2)
    at_quad = Divisor.of_place(Place.from_polynomial(quad), 1)
    assert in_riemann_roch_space(RationalFunction(Polynomial.one(F5), quad), at_quad)


def test_rr_membership_rejects_high_pole_at_infinity():
    G = Divisor.of_place(Place.infinity(F7), 1)
    assert in_riemann_roch_space(RationalFunction.x(F7), G)
    assert not in_riemann_roch_space(RationalFunction.x(F7) ** 2, G)
    finite_only = Divisor.of_place(Place.at(F7.zero), 2)
    assert not in_riemann_roch_space(RationalFunction.x(F7), finite_only)
    assert in_riemann_roch_space(RationalFunction.x(F7) ** -2, finite_only)


def test_rr_membership_rejects_missing_forced_zero():
    G = Divisor(F5, {Place.at(F5.zero): 2, Place.at(F5.one): -1, Place.infinity(F5): 1})
    assert not in_riemann_roch_space(RationalFunction.x(F5) ** -1, G)
    assert not in_riemann_roch_space(RationalFunction.constant(F5.one), G)
    assert in_riemann_roch_space(RationalFunction(x_minus(F5, 1), Polynomial.x(F5)), G)
    quad = Polynomial(F5, [2, 0, 1])
    Gq = Divisor(F5, {Place.infinity(F5): 3, Place.from_polynomial(quad): -1})
    assert not in_riemann_roch_space(RationalFunction.x(F5), Gq)
    assert in_riemann_roch_space(RationalFunction.from_polynomial(quad), Gq)


def _random_poly(field, rng, top):
    length = rng.randint(1, top + 1)
    return Polynomial.from_values(field, [rng.randrange(field.q) for _ in range(length)])


def test_rr_membership_matches_factoring_oracle():
    rng = random.Random(20210616)
    verdicts = {True: 0, False: 0}
    for field in (GF(2, 2), F5, F7):
        places = [Place.at(e) for e in field.elements()] + [Place.infinity(field)]
        places += [
            Place.from_polynomial(f)
            for f in (Polynomial.from_values(field, [c0, c1, 1])
                      for c0 in range(field.q) for c1 in range(field.q))
            if f.is_irreducible()
        ][:3]
        for _ in range(400):
            support = rng.sample(places, rng.randint(0, 3))
            G = Divisor(field, {P: rng.randint(-2, 3) for P in support})
            basis = rr_basis(G)
            if basis and rng.random() < 0.5:
                f = RationalFunction.constant(field.zero)
                for member in basis:
                    c = RationalFunction.constant(field.from_value(rng.randrange(field.q)))
                    f = f + c * member
                if rng.random() < 0.5:  # perturb by a random pole or zero
                    f = f * RationalFunction.x(field) ** rng.choice((-1, 1))
            else:
                den = _random_poly(field, rng, 3)
                if den.is_zero():
                    den = Polynomial.one(field)
                f = RationalFunction(_random_poly(field, rng, 3), den)
            expected = in_riemann_roch_space_by_factoring(f, G)
            assert in_riemann_roch_space(f, G) == expected, (str(f), str(G))
            verdicts[expected] += 1
    assert min(verdicts.values()) > 200


def test_pole_power_basis_spans_rr_space():
    beta = F7.element(3)
    paperish = pole_power_basis(beta, 2)
    assert [str(f) for f in paperish] == ["1", "(1)/(x + 4)", "(1)/(x^2 + x + 2)"]
    standard = rr_basis(Divisor.of_place(Place.at(beta), 2))
    points = [e for e in F7.elements() if e != beta] + [None]

    def eval_rows(basis):
        rows = []
        for f in basis:
            row = []
            for t in points:
                place = Place.infinity(F7) if t is None else Place.at(t)
                row.append(evaluate_at_place(f, place).val)
            rows.append(row)
        return rref(F7, as_matrix(F7, rows))[0]

    a, b = eval_rows(paperish), eval_rows(standard)
    assert a.shape == b.shape and (a == b).all()


def test_evaluate_at_place():
    assert evaluate_at_place(RationalFunction.x(F5), Place.at(F5.element(3))) == F5.element(3)
    inv = RationalFunction(Polynomial.one(F5), Polynomial.x(F5) ** 2)
    assert evaluate_at_place(inv, Place.infinity(F5)).is_zero()
    ratio = RationalFunction(Polynomial(F5, [1, 1]), Polynomial(F5, [2, 1]))
    assert evaluate_at_place(ratio, Place.infinity(F5)) == F5.one
    with pytest.raises(ValueError):
        evaluate_at_place(ratio, Place.at(F5.element(3)))  # pole at -2 = 3
    with pytest.raises(ValueError):
        evaluate_at_place(ratio, Place.from_polynomial(Polynomial(F5, [2, 0, 1])))


def test_substitution_evaluation_compatibility():
    # evaluating the substituted function at the moved place recovers the
    # original value: substitute-by-A and place_image-by-A cancel
    fns = [
        RationalFunction.x(F5),
        RationalFunction(Polynomial(F5, [1, 2, 1]), Polynomial(F5, [3, 1])),
        RationalFunction(Polynomial(F5, [4, 1]), Polynomial(F5, [1, 0, 1])),
    ]
    maps = [
        MobiusMap.from_string(F5, "1,1;0,1"),
        MobiusMap.from_string(F5, "1,0;0,2"),
        MobiusMap.from_string(F5, "0,1;1,0"),
        MobiusMap.from_string(F5, "1,2;3,4"),
    ]
    points = [Place.at(e) for e in F5.elements()] + [Place.infinity(F5)]
    for f in fns:
        for A in maps:
            moved = mobius_substitute(f, A)
            for P in points:
                target = place_image(A, P)
                try:
                    expected = evaluate_at_place(f, P)
                except ValueError:
                    continue
                assert evaluate_at_place(moved, target) == expected


def test_place_and_divisor_strings():
    for s in ("a=0", "a=3", "inf"):
        assert str(place_from_string(F5, s)) == s
    p = place_from_string(F4, "poly:b+1,b+1,1")
    assert p.degree == 2 and str(p) == "poly:b+1,b+1,1"
    d = divisor_from_string(F5, "2*a=0 + 1*inf")
    assert d.degree == 3 and str(d) == "2*a=0 + 1*inf"
    assert divisor_from_string(F5, "0") == Divisor.zero(F5)
    with pytest.raises(ValueError):
        place_from_string(F5, "nonsense")


def test_valuation():
    f = RationalFunction(Polynomial(F5, [0, 0, 1]), Polynomial(F5, [4, 1]))  # x^2/(x+4)
    assert valuation(f, Place.at(F5.zero)) == 2
    assert valuation(f, Place.at(F5.one)) == -1
    assert valuation(f, Place.infinity(F5)) == -1
    assert valuation(f, Place.at(F5.element(2))) == 0
