"""Orbit codes: construction, verification, classical cases, transports,
closed standard forms, canonicalization."""

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
