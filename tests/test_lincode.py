"""Linear-code engine: parameters, cyclicity, standard form, equivalence."""

from itertools import product

import numpy as np
import pytest

from agcyclic import (
    GF,
    BudgetExceededError,
    Divisor,
    LinearCode,
    Place,
    monomial_equivalence,
    roots_of_unity_code,
    rr_basis,
)

F2 = GF(2)
F5 = GF(5)
F7 = GF(7)


def brute_weights(code):
    """Independent oracle: enumerate messages with itertools."""
    field = code.field
    basis = code.rref
    counts = [0] * (code.n + 1)
    for msg in product(range(field.q), repeat=basis.shape[0]):
        word = [0] * code.n
        for c, row in zip(msg, basis):
            if c:
                word = [field.add_i(w, field.mul_i(c, int(v))) for w, v in zip(word, row)]
        counts[sum(1 for w in word if w)] += 1
    return counts


def test_dimension_and_equality():
    code, _ = roots_of_unity_code(F7, 6, 2, 1)
    assert code.dimension() == 4  # deg G + 1
    assert code.equals(code)
    permuted = LinearCode(F7, code.generator[::-1])
    assert code.equals(permuted)
    stacked = LinearCode(F7, np.vstack([code.generator, code.generator[:1]]))
    assert stacked.dimension() == 4 and code.equals(stacked)
    with pytest.raises(ValueError):
        code.equals(LinearCode(F7, [[1, 1]]))


def test_min_distance_brute_force_agreement():
    code, _ = roots_of_unity_code(F7, 6, 1, 1)
    counts = brute_weights(code)
    assert code.weight_enumerator().counts == tuple(counts)
    assert code.min_distance() == next(i for i in range(1, 7) if counts[i])
    assert code.min_distance() == 4


def test_min_distance_trivial_codes():
    repetition = LinearCode(F5, [[1] * 6])
    assert repetition.min_distance() == 6
    full = LinearCode(F5, np.eye(3, dtype=np.int64))
    assert full.min_distance() == 1
    zero = LinearCode.zero_code(F5, 4)
    with pytest.raises(ValueError):
        zero.min_distance()


def test_weight_enumerator_properties():
    zero = LinearCode.zero_code(F5, 4)
    assert zero.weight_enumerator().counts == (1, 0, 0, 0, 0)
    repetition = LinearCode(F7, [[1, 1, 1]])
    we = repetition.weight_enumerator()
    assert we[0] == 1 and we[3] == 6
    code, _ = roots_of_unity_code(F7, 6, 1, 1)
    assert sum(code.weight_enumerator().counts) == 7 ** 3 == 343


def test_budget_guard():
    code = LinearCode(F7, np.eye(5, dtype=np.int64))
    with pytest.raises(BudgetExceededError):
        code.min_distance(budget=100)


def test_is_cyclic():
    code, _ = roots_of_unity_code(F7, 6, 1, 1)
    assert code.is_cyclic()
    full = LinearCode(F2, np.eye(3, dtype=np.int64))
    assert full.is_cyclic()
    assert not LinearCode(F2, [[1, 0, 0]]).is_cyclic()


def test_is_cyclic_invariant_under_row_operations():
    code, _ = roots_of_unity_code(F5, 4, 1, 1)
    gen = code.generator.copy()
    # deterministic pseudo-random row operations
    state = 1
    for _ in range(5):
        state = (state * 7 + 3) % 25
        i, j = state % 3, (state // 3) % 3
        if i != j:
            gen[i] = F5.np_add(gen[i], F5.np_mul((state % 4) + 1, gen[j]))
        assert LinearCode(F5, gen).is_cyclic() == code.is_cyclic()


def test_standard_form():
    code, _ = roots_of_unity_code(F7, 6, 1, 1)  # Vandermonde-type generator
    perm, w = code.standard_form()
    assert perm == tuple(range(6))
    assert w.shape == (3, 3)
    # (I_k | W) regenerates the permuted code
    k = code.dimension()
    rebuilt = np.concatenate([np.eye(k, dtype=np.int64), w], axis=1)
    assert LinearCode(F7, rebuilt).equals(LinearCode(F7, code.generator[:, perm]))
    # already standard form: unchanged
    std = LinearCode(F7, rebuilt)
    perm2, w2 = std.standard_form()
    assert perm2 == tuple(range(6)) and (w2 == w).all()
    # dependent leading columns force a non-identity permutation
    dependent = LinearCode(F5, [[0, 1, 0], [0, 0, 1]])
    perm3, _w3 = dependent.standard_form()
    assert perm3 == (1, 2, 0)
    with pytest.raises(ValueError):
        LinearCode.zero_code(F5, 3).standard_form()


def test_is_mds():
    code, _ = roots_of_unity_code(F7, 6, 1, 1)
    assert code.is_mds()
    assert LinearCode(F5, np.eye(4, dtype=np.int64)).is_mds()
    not_mds = LinearCode(F2, [[1, 1, 0, 0], [0, 0, 1, 1]])  # [4,2,2], needs 3
    assert not not_mds.is_mds()


def scaling_code(field, a_val, r):
    from agcyclic import INF, MobiusMap, OrbitCodeSpec, construct_orbit_code

    spec = OrbitCodeSpec(MobiusMap.scaling(field.element(a_val)), field.one, INF, r)
    return construct_orbit_code(spec)


def test_monomial_equivalence_scalings():
    c2, c3 = scaling_code(F5, 2, 1), scaling_code(F5, 3, 1)
    verdict = monomial_equivalence(c2, c3)
    assert verdict.status == "EQUIVALENT"
    witness = verdict.witness
    # exactly one nonzero per row and column
    assert ((witness != 0).sum(axis=0) == 1).all()
    assert ((witness != 0).sum(axis=1) == 1).all()
    moved = c2.apply_monomial(witness)
    assert moved.equals(c3)
    # weight enumerator preserved by the witness
    assert moved.weight_enumerator().counts == c2.weight_enumerator().counts
    # a pure column-permutation witness also exists (power reindexing)
    from agcyclic.construction import _power_reindex_permutation

    perm = _power_reindex_permutation(F5, F5.element(2), F5.element(3), 4)
    assert c2.apply_monomial(perm).equals(c3)


def test_monomial_equivalence_identity_and_filters():
    code, _ = roots_of_unity_code(F5, 4, 1, 0)
    verdict = monomial_equivalence(code, code)
    assert verdict.status == "EQUIVALENT"
    other = LinearCode(F5, [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert monomial_equivalence(code, other).status == "INEQUIVALENT"
    short = LinearCode(F5, [[1, 0, 0]])
    assert monomial_equivalence(code, short).status == "INEQUIVALENT"


def test_monomial_equivalence_scaled_witness():
    base = LinearCode(F5, [[1, 2, 3], [0, 1, 4]])
    scaling = np.diag([1, 3, 2]).astype(np.int64)
    moved = base.apply_monomial(scaling)
    verdict = monomial_equivalence(base, moved)
    assert verdict.status == "EQUIVALENT"
    assert base.apply_monomial(verdict.witness).equals(moved)


def test_monomial_equivalence_undecided_on_budget():
    gen = np.eye(9, dtype=np.int64)[:2]
    c1, c2 = LinearCode(F5, gen), LinearCode(F5, gen)
    verdict = monomial_equivalence(c1, c2)  # 9! exceeds the default budget
    assert verdict.status == "UNDECIDED"


def test_designed_distance_bound():
    for n, r, s in ((6, 1, 1), (6, 2, 1), (3, 1, 0)):
        code, _ = roots_of_unity_code(F7, n, r, s)
        assert code.min_distance() >= n - (r + s)
