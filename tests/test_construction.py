"""Orbit codes: construction, verification, classical cases, transports,
closed standard forms, canonicalization."""

import random

import numpy as np
import pytest

from agcyclic import (
    GF,
    INF,
    Divisor,
    MobiusMap,
    OrbitCodeSpec,
    Place,
    Polynomial,
    RationalFunction,
    artin_schreier_code,
    canonicalize,
    closed_standard_form,
    construct_ag_code,
    construct_orbit_code,
    frobenius_code,
    is_infinite,
    place_of_point,
    roots_of_unity_code,
    transport_pole_to_zero,
    transport_zero_to_infinity,
    verify_cyclic_construction,
)
from agcyclic import BudgetExceededError, construction, evaluate_at_place, linalg, rr_basis
from agcyclic.construction import GENERATOR_ENTRY_BUDGET
from agcyclic.rfield import evaluate_rr_basis

F4 = GF(2, 2)
F5 = GF(5)
F7 = GF(7)
F9 = GF(3, 2)
B = F4.generator


def gf4_order5_inputs():
    matrix = MobiusMap.from_string(F4, "1,1;b,0")
    D = [place_of_point(F4, t) for t in matrix.orbit(F4.one)]
    Q = Place.from_polynomial(Polynomial(F4, [B * B, B * B, F4.one]))
    return matrix, D, Divisor.of_place(Q, 1)


def test_construct_ag_code_roots_of_unity():
    omega = F7.element(3)
    D = [Place.at(omega ** i) for i in range(6)]
    G = Divisor(F7, {Place.at(F7.zero): 1, Place.infinity(F7): 1})
    code = construct_ag_code(D, G)
    assert code.n == 6 and code.dimension() == 3


def test_construct_ag_code_zero_divisor_gives_repetition():
    D = [Place.at(F5.element(v)) for v in (1, 2, 3)]
    code = construct_ag_code(D, Divisor.zero(F5))
    assert code.dimension() == 1
    assert code.equals(__import__("agcyclic").LinearCode(F5, [[1, 1, 1]]))


def test_construct_ag_code_errors():
    D = [Place.at(F5.zero), Place.at(F5.one)]
    with pytest.raises(ValueError):
        construct_ag_code(D, Divisor.of_place(Place.at(F5.zero), 1))  # overlap
    with pytest.raises(ValueError):
        construct_ag_code([Place.at(F5.zero)] * 2, Divisor.of_place(Place.infinity(F5), 1))
    quad = Place.from_polynomial(Polynomial(F5, [2, 0, 1]))
    with pytest.raises(ValueError):
        construct_ag_code([quad], Divisor.of_place(Place.infinity(F5), 1))


def random_divisor_and_places(field, rng, target):
    """Distinct rational places D and a divisor G off D with mixed-sign
    coefficients, sometimes a degree-2 place, and degree in the target
    class: 'negative', 'zero', 'small' (1..n-1) or 'large' (>= n)."""
    points = [field.from_value(v) for v in range(field.q)] + [INF]
    rng.shuffle(points)
    n = rng.randint(1, min(8, len(points) - 1))
    D = [place_of_point(field, t) for t in points[:n]]
    spare = [place_of_point(field, t) for t in points[n:]]
    support = rng.sample(spare, rng.randint(1, min(3, len(spare))))
    coeffs = {P: rng.choice([-3, -2, -1, 1, 2, 3]) for P in support}
    if rng.random() < 0.5:
        quadratic = next(
            Polynomial.from_values(field, [c0, c1, 1])
            for c0 in rng.sample(range(1, field.q), field.q - 1)
            for c1 in range(field.q)
            if Polynomial.from_values(field, [c0, c1, 1]).is_irreducible()
        )
        coeffs[Place.from_polynomial(quadratic)] = rng.choice([-2, -1, 1, 2])
    degree = {"negative": rng.randint(-3, -1), "zero": 0,
              "small": rng.randint(1, max(n - 1, 1)), "large": rng.randint(n, n + 3)}[target]
    current = sum(c * P.degree for P, c in coeffs.items())
    coeffs[support[0]] += degree - current  # support[0] is rational
    return D, Divisor(field, coeffs)


@pytest.mark.parametrize("field", [F5, GF(2, 3), F9, GF(13), GF(3, 3)], ids=repr)
def test_vandermonde_rows_equal_evaluated_rr_basis(field):
    """The default generator is, entry for entry, rr_basis(G) evaluated
    place by place."""
    rng = random.Random(f"vandermonde:{field.q}")
    seen = set()
    for i in range(60):
        target = ["negative", "zero", "small", "large"][i % 4]
        D, G = random_divisor_and_places(field, rng, target)
        expected = [[evaluate_at_place(f, P).val for P in D] for f in rr_basis(G)]
        assert evaluate_rr_basis(G, D) == expected
        code = construct_ag_code(D, G)
        assert code.generator.shape == (len(expected), len(D))
        assert code.generator.tolist() == expected
        kinds = {c > 0 for c in dict(G.items()).values()}
        seen.add(target)
        seen.update(
            name for name, hit in [
                ("mixed signs", kinds == {True, False}),
                ("degree-2 place in G", any(P.degree == 2 for P in G.support())),
                ("inf in D", any(P.is_infinite for P in D)),
                ("inf in G", any(P.is_infinite for P in G.support())),
                ("deg G >= n", G.degree >= len(D)),
            ] if hit
        )
    assert seen == {"negative", "zero", "small", "large", "mixed signs", "degree-2 place in G",
                    "inf in D", "inf in G", "deg G >= n"}


def test_verify_checks_the_default_rows_against_rr_basis(monkeypatch):
    """The report is refused when the default generator is not rr_basis(G)
    evaluated entry for entry, even when it spans the same code."""
    matrix = MobiusMap.from_string(F7, "1,1;0,1")
    D = [place_of_point(F7, t) for t in matrix.orbit(F7.zero)]
    G = Divisor.of_place(Place.infinity(F7), 2)
    assert verify_cyclic_construction(matrix, D, G).dimension == 3
    monkeypatch.setattr(construction, "evaluate_rr_basis",
                        lambda G, D: evaluate_rr_basis(G, D)[::-1])
    with pytest.raises(AssertionError, match="Vandermonde rows differ"):
        verify_cyclic_construction(matrix, D, G)


@pytest.mark.parametrize("degree", [10 ** 8, GENERATOR_ENTRY_BUDGET // 7])  # 7 * 1428572 > 10^7
def test_construct_refuses_a_generator_over_the_budget(degree):
    matrix = MobiusMap.from_string(F7, "1,1;0,1")
    D = [place_of_point(F7, t) for t in matrix.orbit(F7.zero)]
    G = Divisor.of_place(Place.infinity(F7), degree)
    with pytest.raises(BudgetExceededError) as info:
        construct_ag_code(D, G)
    assert (info.value.limit, info.value.needed) == (GENERATOR_ENTRY_BUDGET, (degree + 1) * 7)
    with pytest.raises(BudgetExceededError):
        verify_cyclic_construction(matrix, D, G)
    # an explicit basis sets the row count, whatever deg G is
    basis = [RationalFunction.from_polynomial(Polynomial.x(F7) ** t) for t in range(3)]
    assert construct_ag_code(D, G, basis).generator.shape == (3, 7)


def test_spec_validation_errors():
    scale = MobiusMap.scaling(F5.element(2))  # fixes 0 and inf, order 4
    with pytest.raises(ValueError, match="fixed"):
        OrbitCodeSpec(scale, F5.zero, INF, 1)
    with pytest.raises(ValueError, match="not fixed"):
        OrbitCodeSpec(scale, F5.one, F5.element(2), 1)
    with pytest.raises(ValueError, match="pole order"):
        OrbitCodeSpec(scale, F5.one, INF, 3)
    with pytest.raises(ValueError, match="pole order"):
        OrbitCodeSpec(scale, F5.one, INF, 0)
    with pytest.raises(ValueError):
        OrbitCodeSpec(MobiusMap.identity(F5), F5.one, INF, 1)


def test_gf4_order5_code_and_report():
    matrix, D, G = gf4_order5_inputs()
    code = construct_ag_code(D, G)
    assert (code.n, code.dimension()) == (5, 3)
    assert code.is_cyclic()
    report = verify_cyclic_construction(matrix, D, G)
    assert report.all_ok
    assert report.m == 5 and report.n == 5 and report.isotropy == 1
    assert report.distance == 3


def test_report_catches_moving_divisor():
    matrix = MobiusMap.scaling(F5.element(2))
    D = [place_of_point(F5, t) for t in matrix.orbit(F5.one)]
    moving = Divisor.of_place(Place.at(F5.element(2)), 1)  # 2 lies on the orbit
    report = verify_cyclic_construction(matrix, D, moving)
    assert not report.g_invariant
    assert not report.supports_disjoint
    assert not report.all_ok
    assert report.shift_condition  # the orbit itself is fine


def test_report_flags_are_independent():
    # right orbit, wrong order: shift condition fails, D-invariance holds
    matrix = MobiusMap.scaling(F5.element(2))
    orbit = list(matrix.orbit(F5.one))
    swapped = [orbit[0], orbit[2], orbit[1], orbit[3]]
    D = [place_of_point(F5, t) for t in swapped]
    report = verify_cyclic_construction(matrix, D, Divisor.of_place(Place.infinity(F5), 1))
    assert report.d_invariant and not report.shift_condition


def test_induced_shift_solved_against_the_reduced_basis(monkeypatch):
    """L(20*inf) gives 21 generator rows spanning a code of dimension 4; each
    shift is solved against the 4 rows of its reduced basis, and is_cyclic
    reduces the shifts of those 4 rows alone."""
    matrix = MobiusMap.from_string(F5, "1,0;0,2")
    D = [place_of_point(F5, F5.element(v)) for v in (1, 2, 4, 3)]
    G = Divisor.of_place(Place.infinity(F5), 20)
    rows = []
    shifted = []
    solve, reduce = linalg.solve_coordinates, linalg.in_row_space

    def spy(field, mat, vec):
        rows.append(mat.shape[0])
        return solve(field, mat, vec)

    def reduce_spy(field, basis, pivots, vec):
        shifted.append(list(vec))
        return reduce(field, basis, pivots, vec)

    monkeypatch.setattr(linalg, "solve_coordinates", spy)
    monkeypatch.setattr(linalg, "in_row_space", reduce_spy)
    report = verify_cyclic_construction(matrix, D, G)
    assert report.induced_shift_solvable and report.dimension == 4
    assert rows and max(rows) <= report.dimension
    assert report.code_cyclic and 0 < len(shifted) <= report.dimension


def test_pole_basis_spans_same_code():
    matrix = MobiusMap(F5.one, -F5.element(3), F5.zero, F5.element(2))  # fixes 2
    spec = OrbitCodeSpec(matrix, F5.zero, F5.element(2), 2)
    assert construct_orbit_code(spec).equals(construct_orbit_code(spec, pole_basis=True))
    inf_spec = OrbitCodeSpec(MobiusMap.scaling(F5.element(2)), F5.one, INF, 1)
    with pytest.raises(ValueError):
        construct_orbit_code(inf_spec, pole_basis=True)


def test_frobenius_examples():
    code, report = frobenius_code(2, 2, 1, 0)
    assert code.n == 2 and code.dimension() == 2 and code.is_cyclic()
    assert report.full_space
    code, report = frobenius_code(2, 3, 1, 1)
    assert code.n == 3 and code.dimension() == 3 and report.full_space
    assert code.is_cyclic()
    code, report = frobenius_code(3, 2, 1, 0)
    assert code.n == 2 and code.is_cyclic()
    with pytest.raises(ValueError):
        frobenius_code(2, 3, 2, 1)  # r + s = n
    with pytest.raises(ValueError):
        frobenius_code(2, 1, 0, 0)  # m < 2


def test_frobenius_cyclicity_boundary():
    # The rotation here comes from a -> a^p, which moves constants, so the
    # usual automorphism guarantee does not apply: the code is cyclic only
    # when its row space is Frobenius-stable.  [3,2] over GF(8) is not.
    code, report = frobenius_code(2, 3, 1, 0)
    assert code.dimension() == 2
    assert not code.is_cyclic()
    assert report.code_cyclic is False  # the report stays honest
    assert report.induced_shift_solvable is False
    assert report.shift_condition is None  # no matrix to test against


def test_roots_of_unity_parameters():
    code, report = roots_of_unity_code(F7, 6, 1, 1)
    assert (code.n, code.dimension(), code.min_distance()) == (6, 3, 4)
    assert code.is_mds() and report.all_ok
    code, report = roots_of_unity_code(F4, 3, 1, 0)
    assert (code.n, code.dimension(), code.min_distance()) == (3, 2, 2)
    assert report.all_ok
    # negative pole order at zero still cyclic (a genuine automorphism)
    code, report = roots_of_unity_code(F7, 6, -1, 2)
    assert code.dimension() == 2 and code.is_cyclic()
    assert code.min_distance() == 5  # MDS at k = 2
    with pytest.raises(ValueError):
        roots_of_unity_code(F7, 4, 1, 0)  # 4 does not divide 6
    with pytest.raises(ValueError):
        roots_of_unity_code(F7, 6, 3, 2)  # r + s > n - 2


def test_artin_schreier_code():
    code, report = artin_schreier_code(F9, 2)
    assert code.n == 3 and report.all_ok
    code, report = artin_schreier_code(GF(2, 3), 1)
    assert code.n == 2 and code.dimension() == 2
    with pytest.raises(ValueError):
        artin_schreier_code(GF(5), 1)  # prime field
    with pytest.raises(ValueError):
        artin_schreier_code(F9, 0)


@pytest.mark.parametrize("family", [
    lambda: frobenius_code(2, 3, 1, 1),
    lambda: roots_of_unity_code(F7, 6, 1, 1),
    lambda: artin_schreier_code(F9, 2),
], ids=["frobenius", "roots-of-unity", "artin-schreier"])
def test_classical_families_build_their_code_once(family, monkeypatch):
    # the default rows and the rr_basis reference inside the verification;
    # the family returns the report's code instead of building a third
    calls = []

    def counted(*args):
        calls.append(args)
        return construct_ag_code(*args)

    monkeypatch.setattr(construction, "construct_ag_code", counted)
    code, report = family()
    assert len(calls) == 2
    assert code is report.code
    assert code.equals(construct_ag_code(*calls[0]))


def test_verify_report_carries_no_code_when_not_constructible():
    D = [Place.at(F5.zero), Place.at(F5.one)]
    report = verify_cyclic_construction(None, D, Divisor.of_place(D[0], 1))
    assert report.code is None and not report.supports_disjoint


def test_transport_pole_to_zero():
    matrix = MobiusMap(F5.one, -F5.element(3), F5.zero, F5.element(2))  # fixes 2, inf
    spec = OrbitCodeSpec(matrix, F5.zero, F5.element(2), 1)
    moved = transport_pole_to_zero(spec)
    assert moved.beta == F5.zero
    assert construct_orbit_code(spec).equals(construct_orbit_code(moved))
    # conjugated matrix fixes zero
    assert moved.matrix.apply_inverse(F5.zero) == F5.zero
    with pytest.raises(ValueError):
        transport_pole_to_zero(moved)  # beta already zero
    inf_spec = OrbitCodeSpec(MobiusMap.scaling(F5.element(2)), F5.one, INF, 1)
    with pytest.raises(ValueError):
        transport_pole_to_zero(inf_spec)


def test_transport_zero_to_infinity():
    matrix = MobiusMap.from_string(F5, "1,0;1,2")  # fixes 0
    spec = OrbitCodeSpec(matrix, F5.one, F5.zero, 1)
    moved = transport_zero_to_infinity(spec)
    assert is_infinite(moved.beta)
    assert construct_orbit_code(spec).equals(construct_orbit_code(moved))
    # theta_i = alpha_i^{-1} elementwise
    from agcyclic.rfield import invert_point

    inverted = [invert_point(F5, t) for t in spec.orbit]
    assert all(
        (s is INF and t is INF) or (s is not INF and t is not INF and s == t)
        for s, t in zip(moved.orbit, inverted)
    )
    with pytest.raises(ValueError):
        transport_zero_to_infinity(moved)  # beta is inf, not zero


def test_transport_zero_to_infinity_orbit_through_infinity():
    # with c != 0 the orbit passes through infinity; evaluation at the
    # infinite place is exercised on both sides
    matrix = MobiusMap.from_string(F7, "1,0;1,3")
    assert matrix.apply_inverse(F7.zero) == F7.zero
    orbit = matrix.orbit(F7.one)
    assert any(is_infinite(t) for t in orbit)
    spec = OrbitCodeSpec(matrix, F7.one, F7.zero, 1)
    moved = transport_zero_to_infinity(spec)
    assert construct_orbit_code(spec).equals(construct_orbit_code(moved))


def test_closed_standard_form_matches_elimination():
    # a = 2 over GF(5): identical W for every b, equal to the rref oracle
    reference = None
    for b_val in range(5):
        matrix = MobiusMap(F5.one, -F5.from_value(b_val), F5.zero, F5.element(2))
        alpha = next(
            F5.from_value(v) for v in range(5)
            if not (F5.from_value(b_val) + (F5.element(2) - F5.one) * F5.from_value(v)).is_zero()
        )
        W = closed_standard_form(matrix, alpha, 1)
        if reference is None:
            reference = W
        assert (W == reference).all()
        code = construct_orbit_code(OrbitCodeSpec(matrix, alpha, INF, 1))
        perm, w_elim = code.standard_form()
        assert perm == tuple(range(code.n)) and (w_elim == W).all()
    # GF(7), a = 3, r = 2
    matrix = MobiusMap.scaling(F7.element(3))
    W = closed_standard_form(matrix, F7.one, 2)
    code = construct_orbit_code(OrbitCodeSpec(matrix, F7.one, INF, 2))
    _, w_elim = code.standard_form()
    assert (W == w_elim).all()
    # a = 1 (order p) over GF(5), seed 0
    unip = MobiusMap(F5.one, -F5.one, F5.zero, F5.one)
    W = closed_standard_form(unip, F5.zero, 1)
    code = construct_orbit_code(OrbitCodeSpec(unip, F5.zero, INF, 1))
    _, w_elim = code.standard_form()
    assert (W == w_elim).all()


def test_closed_standard_form_validation():
    order2 = MobiusMap.scaling(F5.element(4))
    with pytest.raises(ValueError):
        closed_standard_form(order2, F5.one, 1)  # order < 3
    scale = MobiusMap.scaling(F5.element(2))
    with pytest.raises(ValueError):
        closed_standard_form(scale, F5.zero, 1)  # fixed seed
    with pytest.raises(ValueError):
        closed_standard_form(scale, F5.one, 3)  # r > n - 2


def test_canonicalize_scaling_class():
    spec = OrbitCodeSpec(MobiusMap.scaling(F5.element(3)), F5.one, INF, 1)
    result = canonicalize(spec)
    assert str(result.spec.matrix) == "1,0;0,2"
    assert result.relation == "EQUIVALENT"
    witness = result.witness
    assert ((witness == 0) | (witness == 1)).all()
    assert (witness.sum(axis=0) == 1).all()  # pure column permutation
    moved = construct_orbit_code(spec).apply_monomial(witness)
    assert moved.equals(construct_orbit_code(result.spec))


def test_canonicalize_translation_class_is_equal():
    spec = OrbitCodeSpec(
        MobiusMap(F5.one, -F5.element(2), F5.zero, F5.one), F5.zero, INF, 2
    )
    result = canonicalize(spec)
    assert str(result.spec.matrix) == "1,1;0,1"
    assert result.relation == "EQUAL"
    assert construct_orbit_code(spec).equals(construct_orbit_code(result.spec))


def test_canonicalize_through_finite_pole():
    matrix = MobiusMap(F5.one, -F5.element(3), F5.zero, F5.element(2))  # fixes 2
    spec = OrbitCodeSpec(matrix, F5.zero, F5.element(2), 1)
    result = canonicalize(spec)
    assert is_infinite(result.spec.beta)
    moved = construct_orbit_code(spec).apply_monomial(result.witness)
    assert moved.equals(construct_orbit_code(result.spec))


def test_canonicalize_degenerate_length_two():
    order2 = MobiusMap.scaling(F5.element(4))
    with pytest.raises(ValueError):
        OrbitCodeSpec(order2, F5.one, INF, 1)  # r range empty for n = 2


def test_full_dimension_flagged():
    code, report = frobenius_code(2, 3, 1, 1)
    assert report.full_space
    code, report = roots_of_unity_code(F7, 6, 1, 1)
    assert not report.full_space
