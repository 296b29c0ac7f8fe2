"""Linear-code engine: parameters, cyclicity, standard form, equivalence."""

import random
import tracemalloc
from collections import Counter
from itertools import islice, permutations, product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
from agcyclic import lincode
from agcyclic.linalg import left_kernel
from agcyclic.lincode import (
    _candidate_permutations,
    _compared,
    _macwilliams,
    _scaling_for_permutation,
    _span,
)
from oracles import (
    dual_weights_by_macwilliams,
    monomial_equivalence_by_walk,
    scaling_by_product_loop,
    weights_by_brute_force,
)
from test_linalg import FIELDS, PROPERTY, combine, draw_matrix

F2 = GF(2)
F5 = GF(5)
F7 = GF(7)


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
    counts = weights_by_brute_force(F7, code.generator)
    assert code.weight_enumerator().counts == tuple(counts)
    assert code.min_distance() == next(i for i in range(1, 7) if counts[i])
    assert code.min_distance() == 4


def test_min_distance_trivial_codes():
    repetition = LinearCode(F5, [[1] * 6])
    assert repetition.min_distance() == 6
    full = LinearCode(F5, np.eye(3, dtype=np.int64))
    assert full.min_distance() == 1
    zero = LinearCode(F5, np.zeros((0, 4), dtype=np.int64))
    with pytest.raises(ValueError):
        zero.min_distance()


def test_weight_enumerator_properties():
    zero = LinearCode(F5, np.zeros((0, 4), dtype=np.int64))
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
    # the budget bounds q^k even where the dual (here 7^1 words) is enumerated,
    # and the error carries the limit and the size needed
    code = LinearCode(F7, np.eye(5, 6, dtype=np.int64))
    with pytest.raises(BudgetExceededError) as caught:
        code.weight_distribution(budget=100)
    assert (caught.value.limit, caught.value.needed) == (100, 7 ** 5)
    assert str(caught.value) == "enumerating 16807 codewords exceeds the budget 100"
    # the scaling search: a kernel of dimension 6 over GF(16)
    field = GF(2, 4)
    repetition = np.kron(np.eye(6, dtype=np.int64), np.ones((1, 2), dtype=np.int64))
    with pytest.raises(BudgetExceededError) as caught:
        _scaling_for_permutation(field, repetition, left_kernel(field, repetition.T))
    assert (caught.value.limit, caught.value.needed) == (1 << 16, 16 ** 6)
    assert str(caught.value) == "scaling search space too large"


def test_codewords_budget_guard():
    # 16^6 > 10^7 words: refused before any block is allocated
    with pytest.raises(BudgetExceededError):
        LinearCode(GF(2, 4), np.eye(6, dtype=np.int64)).codewords()
    words = LinearCode(F7, [[1, 1, 1]]).codewords()
    assert sorted(words[:, 0].tolist()) == list(range(7))


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
        LinearCode(F5, np.zeros((0, 3), dtype=np.int64)).standard_form()


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
    for bad in (np.ones((3, 3), dtype=np.int64), np.diag([1, 0, 2]), np.eye(2, dtype=np.int64)):
        with pytest.raises(ValueError):
            base.apply_monomial(bad)


def test_monomial_equivalence_undecided_on_budget():
    gen = np.eye(9, dtype=np.int64)[:2]
    c1, c2 = LinearCode(F5, gen), LinearCode(F5, gen)
    verdict = monomial_equivalence(c1, c2)  # 9! exceeds the default budget
    assert verdict.status == "UNDECIDED"
    assert (verdict.limit, verdict.needed) == (40320, 362880)
    verdict = monomial_equivalence(c1, c2, permutation_budget=1000)
    assert (verdict.limit, verdict.needed) == (1000, 362880)


def test_monomial_equivalence_undecided_on_scaling_budget(monkeypatch):
    # F^4 + a repetition block over GF(16): every permutation that admits a
    # scaling has a kernel of dimension 5, 16^5 words against 2^16, so the
    # search stops at the first of its 48 survivors
    field = GF(2, 4)
    code = LinearCode(field, repetition_sum((1, 1, 1, 1, 2)))
    r2, pivots = code._reduced()
    assert len(list(_candidate_permutations(field, r2, r2, pivots))) == 48
    solves = []

    def counted(*args):
        solves.append(args)
        return _scaling_for_permutation(*args)

    monkeypatch.setattr(lincode, "_scaling_for_permutation", counted)
    verdict = monomial_equivalence(code, code)
    assert len(solves) == 1
    assert (verdict.status, verdict.reason) == ("UNDECIDED", "scaling search budget exhausted")
    assert (verdict.limit, verdict.needed) == (1 << 16, 16 ** 5)
    assert verdict.witness is None
    decided = monomial_equivalence(scaling_code(F5, 2, 1), scaling_code(F5, 3, 1))
    assert (decided.limit, decided.needed) == (None, None)


def test_designed_distance_bound():
    for n, r, s in ((6, 1, 1), (6, 2, 1), (3, 1, 0)):
        code, _ = roots_of_unity_code(F7, n, r, s)
        assert code.min_distance() >= n - (r + s)


@PROPERTY
@given(data=st.data(), field=st.sampled_from(FIELDS))
def test_span_lists_combinations_in_product_order(data, field):
    basis, _ = draw_matrix(data, field, max_rows=3, max_cols=5)
    expected = [
        combine(field, combo, basis)
        for combo in product(range(field.q), repeat=basis.shape[0])
    ]
    assert _span(field, basis).tolist() == expected


@PROPERTY
@given(data=st.data(), field=st.sampled_from(FIELDS))
def test_macwilliams_identity_with_the_dual(data, field):
    mat, _ = draw_matrix(data, field, max_cols=5)
    code = LinearCode(field, mat)
    dual = LinearCode(field, left_kernel(field, code.rref.T))
    assert dual.dimension() == code.n - code.dimension()
    assert dual.weight_distribution().tolist() == dual_weights_by_macwilliams(
        field.q, code.n, code.dimension(), code.weight_distribution()
    )


ORACLE_FIELDS = [GF(2), GF(2, 2), GF(5), GF(7), GF(2, 3), GF(3, 2), GF(2, 4)]


def random_generator(field, rng, n, k):
    """k random rows and, half of the time, one more row that is a random
    combination of them; shuffled."""
    base = np.array([[rng.randrange(field.q) for _ in range(n)] for _ in range(k)],
                    dtype=np.int64).reshape(k, n)
    rows = base.tolist()
    if rng.random() < 0.5:
        rows.append(combine(field, [rng.randrange(field.q) for _ in range(k)], base))
    rng.shuffle(rows)
    return np.array(rows, dtype=np.int64).reshape(len(rows), n)


def spy_on_kernel(monkeypatch):
    """Record the _span calls (rows built) and the _compared calls (rows
    compared, start address of the compared block) of the weight kernel."""
    spans, compared = [], []

    def span(field, basis):
        words = _span(field, basis)
        spans.append(words.shape[0])
        return words

    def compare(words, word):
        compared.append((words.shape[0], words.ctypes.data))
        return _compared(words, word)

    monkeypatch.setattr(lincode, "_span", span)
    monkeypatch.setattr(lincode, "_compared", compare)
    return spans, compared


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_weight_distribution_matches_brute_force(field, monkeypatch):
    """Seeded random codes of every length 1..7 and every rate the oracle
    can afford, the dual route (k > n - k) included.  Each is counted with
    the default block size and with blocks of q words and of the zero word
    alone (_CHUNK in entries: q * n and 1), so that both the prefixes of the
    block and the offsets are exercised at this scale."""
    rng = random.Random(f"weights:{field.q}")
    spans, compared = spy_on_kernel(monkeypatch)
    seen = Counter()
    for n in range(1, 8):
        for k in range(n + 1):
            if field.q ** (k + 1) > 5000:
                continue
            for _ in range(2):
                gen = random_generator(field, rng, n, k)
                code = LinearCode(field, gen)
                dim = code.dimension()
                expected = weights_by_brute_force(field, gen)
                for chunk in (1 << 21, field.q * n, 1):
                    monkeypatch.setattr(lincode, "_CHUNK", chunk)
                    spans.clear()
                    compared.clear()
                    assert code.weight_distribution().tolist() == expected
                    seen["prefix"] += any(rows < spans[0] for rows, _ in compared)
                    seen["offset"] += len(spans) > 1
                seen["dual" if n - dim < dim else "equal" if n == 2 * dim else "direct"] += 1
                seen["zero"] += dim == 0
                seen["full"] += dim == n
                seen["dependent"] += gen.shape[0] > dim
    keys = ("dual", "equal", "direct", "zero", "full", "dependent", "prefix", "offset")
    assert all(seen[key] for key in keys), seen


def test_high_rate_code_enumerates_its_dual(monkeypatch):
    """A [8, 6] code over GF(9) compares the (9^2 - 1)/8 = 10 words of its
    dual's lines, never its own 9^6 words; its [8, 2] dual compares the same
    10 words of its own."""
    field = GF(3, 2)
    code, _ = roots_of_unity_code(field, 8, 3, 2)
    dual = LinearCode(field, left_kernel(field, code.rref.T))
    assert (code.dimension(), dual.dimension()) == (6, 2)
    _, compared = spy_on_kernel(monkeypatch)
    counts = code.weight_distribution().tolist()
    assert sum(rows for rows, _ in compared) == 10
    compared.clear()
    dual_counts = dual.weight_distribution().tolist()
    assert sum(rows for rows, _ in compared) == 10
    assert counts == dual_weights_by_macwilliams(9, 8, 2, dual_counts)
    # MDS: A_d = C(n, d) (q - 1) for d = n - k + 1
    assert counts[:4] == [1, 0, 0, 56 * 8]


def test_low_rate_code_compares_one_word_per_line(monkeypatch):
    """A [15, 5] code over GF(16) compares (16^5 - 1)/15 = 69905 words, not
    16^5, all against prefixes of one block, the 16^4 words spanned by its
    last four rows (16^4 * 15 entries fit _CHUNK), and gets the MDS
    distribution."""
    field = GF(2, 4)
    code, _ = roots_of_unity_code(field, 15, 2, 2)
    assert code.dimension() == 5
    spans, compared = spy_on_kernel(monkeypatch)
    counts = code.weight_distribution().tolist()
    assert sum(rows for rows, _ in compared) == 69905
    assert spans == [16 ** 4] and max(rows for rows, _ in compared) == 16 ** 4
    assert len({address for _, address in compared}) == 1
    assert counts[:11] == [1] + [0] * 10  # d = n - k + 1 = 11
    assert counts[11] == 1365 * 15  # C(15, 11) (q - 1)
    assert sum(counts) == 16 ** 5


def test_weight_distribution_memory_is_bounded():
    """GF(256) [255, 2]: the kernel's block holds 256 words of 255 entries
    (2^21 entries bound it), so the enumeration peaks far below 4 MiB, where
    a block of all 65536 words would take 134 MB."""
    field = GF(2, 8)
    code, _ = roots_of_unity_code(field, 255, 0, 1)
    assert code.dimension() == 2
    tracemalloc.start()
    try:
        counts = code.weight_distribution()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.tolist()[-2:] == [255 * 255, 2 * 255]
    assert peak < 4 << 20, peak


@PROPERTY
@given(data=st.data(), field=st.sampled_from(FIELDS))
def test_macwilliams_transform_matches_krawtchouk_oracle(data, field):
    mat, _ = draw_matrix(data, field, max_rows=3, max_cols=6)
    counts = weights_by_brute_force(field, mat)
    m = LinearCode(field, mat).dimension()
    assert _macwilliams(field.q, counts) == dual_weights_by_macwilliams(
        field.q, mat.shape[1], m, counts
    )


def test_macwilliams_transform_asserts_integrality():
    # three binary words of weight 1 and the zero word are no code
    with pytest.raises(AssertionError):
        _macwilliams(2, [1, 3, 0, 0])


def blocks(field, rng, n):
    """A random generator, block diagonal with one or two blocks, so that
    scaling kernels of dimension >= 2 are common."""
    cut = rng.randint(1, n - 1) if n > 2 and rng.random() < 0.5 else n
    out = np.zeros((0, n), dtype=np.int64)
    for start, stop in ((0, cut), (cut, n)):
        if start == stop:
            continue
        k = rng.randint(1, stop - start)
        part = np.zeros((k, n), dtype=np.int64)
        part[:, start:stop] = [[rng.randrange(field.q) for _ in range(stop - start)]
                               for _ in range(k)]
        out = np.vstack([out, part])
    return out


def scaling_outcome(search, field, permuted, checks):
    try:
        found = search(field, permuted, checks)
    except BudgetExceededError:
        return "budget"
    return None if found is None else tuple(found.tolist())


def test_scaling_search_matches_product_loop_oracle():
    """_scaling_for_permutation against the product-loop search on seeded
    random codes and monomial images of them, then on direct sums of
    repetition codes whose scaling search reaches or passes its budget."""
    rng = random.Random(11)
    fields = [GF(2), GF(3), GF(5), GF(7), GF(2, 2), GF(2, 3), GF(3, 2)]
    seen = Counter()

    def check(field, permuted, checks):
        got = scaling_outcome(_scaling_for_permutation, field, permuted, checks)
        assert got == scaling_outcome(scaling_by_product_loop, field, permuted, checks)
        if isinstance(got, tuple):
            system = field.np_mul(checks[:, None, :], permuted[None, :, :]).reshape(-1, len(got))
            seen["kernel dim >= 2" if left_kernel(field, system.T).shape[0] >= 2 else "hit"] += 1
        else:
            seen[got] += 1

    for _ in range(200):
        field = rng.choice(fields)
        n = rng.randint(2, 6)
        c1 = LinearCode(field, blocks(field, rng, n))
        if c1.dimension() == 0:
            continue
        perm = list(range(n))
        rng.shuffle(perm)
        if rng.random() < 0.7:
            witness = np.zeros((n, n), dtype=np.int64)
            witness[perm, np.arange(n)] = [rng.randrange(1, field.q) for _ in range(n)]
            c2 = c1.apply_monomial(witness)
        else:
            c2 = LinearCode(field, blocks(field, rng, n))
        checks = left_kernel(field, c2.rref.T)
        tried = list(permutations(range(n))) if n <= 4 else [
            tuple(rng.sample(range(n), n)) for _ in range(30)]
        for p in tried + [tuple(perm)]:
            check(field, c1.rref[:, p], checks)

    # scaling kernels of dimension `copies`: 16^4 and 9^5 words are searched,
    # 16^6 and 9^7 pass the budget; with the first block forced to zero the
    # search is decided (None) ahead of the budget in every case
    for field, copies in ((GF(2, 4), 4), (GF(2, 4), 6), (GF(3, 2), 5), (GF(3, 2), 7)):
        repetition = np.kron(np.eye(copies, dtype=np.int64), np.ones((1, 2), dtype=np.int64))
        checks = left_kernel(field, repetition.T)
        check(field, repetition, checks)
        unit = np.zeros((1, 2 * copies), dtype=np.int64)
        unit[0, 0] = 1
        check(field, repetition, np.vstack([checks, unit]))
    assert seen["budget"] >= 2 and seen["hit"] > 100, seen
    assert seen["kernel dim >= 2"] > 500 and seen[None] > 1000, seen


# ---------------------------------------------------------------------------
# the pruned permutation search against the full walk
# ---------------------------------------------------------------------------

def repetition_sum(blocks, n=None):
    """Direct sum of repetition codes of the given lengths, padded with zero
    columns to length n."""
    total = sum(blocks)
    gen = np.zeros((len(blocks), n or total), dtype=np.int64)
    start = 0
    for row, length in enumerate(blocks):
        gen[row, start:start + length] = 1
        start += length
    return gen


def grs_code(field, points, multipliers, k):
    rows = [[field.mul_i(v, field.pow_i(x, i)) for x, v in zip(points, multipliers)]
            for i in range(k)]
    return LinearCode(field, np.array(rows, dtype=np.int64).reshape(k, len(points)))


def monomial_image(field, code, perm, rng):
    n = code.n
    witness = np.zeros((n, n), dtype=np.int64)
    witness[list(perm), np.arange(n)] = [rng.randrange(1, field.q) for _ in range(n)]
    return code.apply_monomial(witness)


def random_generator(field, rng, n, k):
    """k x n with a zero column or a repeated column now and then."""
    gen = np.array([[rng.randrange(field.q) for _ in range(n)] for _ in range(k)],
                   dtype=np.int64).reshape(k, n)
    if n > 1 and rng.random() < 0.3:
        gen[:, rng.randrange(n)] = 0
    if n > 1 and rng.random() < 0.3:
        a, b = rng.sample(range(n), 2)
        gen[:, a] = gen[:, b]
    return gen


def witness_permutation(witness):
    """perm with column j of the image taken from column perm[j]."""
    return tuple(int(i) for i in np.argmax(witness != 0, axis=0))


def assert_matches_walk(c1, c2, **budgets):
    got = monomial_equivalence(c1, c2, **budgets)
    want = monomial_equivalence_by_walk(c1, c2, **budgets)
    assert (got.status, got.reason) == (want.status, want.reason)
    if want.witness is None:
        assert got.witness is None
    else:
        assert np.array_equal(got.witness, want.witness)
    return got.status


def test_pruned_search_matches_full_walk():
    """Status, reason and witness of the pruned search equal those of the
    walk over all n! permutations: every field of order at most 9, n = 1..6
    and every k, planted monomial images and random pairs (compared with and
    without the weight-enumerator filter), a few GRS pairs at n = 7, and
    direct sums of repetition codes whose scaling search passes its budget."""
    rng = random.Random(7)
    fields = [GF(2), GF(3), GF(2, 2), GF(5), GF(7), GF(2, 3), GF(3, 2)]
    seen = Counter()
    for field in fields:
        for n in range(1, 7):
            for k in range(n + 1):
                c1 = LinearCode(field, random_generator(field, rng, n, k))
                planted = monomial_image(field, c1, rng.sample(range(n), n), rng)
                seen[assert_matches_walk(c1, planted)] += 1
                for budget in (1, 10 ** 7):  # without and with the filter
                    other = LinearCode(field, random_generator(field, rng, n, k))
                    seen[assert_matches_walk(c1, other, codeword_budget=budget)] += 1
    for pm, k in (((11,), 3), ((13,), 2), ((2, 3), 4)):
        field = GF(*pm)
        points = rng.sample(range(field.q), 7)
        c1 = grs_code(field, points, [rng.randrange(1, field.q) for _ in range(7)], k)
        perm = tuple(rng.sample(range(7), 7))
        seen[assert_matches_walk(c1, monomial_image(field, c1, perm, rng))] += 1
        c2 = grs_code(field, rng.sample(range(field.q), 7), [1] * 7, k)
        seen[assert_matches_walk(c1, c2)] += 1
    for pm, blocks in (((2, 4), (2, 2, 2)), ((2, 4), (1, 1, 1, 1, 2)),
                       ((3, 2), (1, 1, 1, 1, 2)), ((3, 2), (1, 1, 1, 1, 1))):
        field = GF(*pm)
        code = LinearCode(field, repetition_sum(blocks, 6))
        seen[assert_matches_walk(code, code)] += 1
        image = monomial_image(field, code, rng.sample(range(6), 6), rng)
        seen[assert_matches_walk(code, image)] += 1
    assert seen["UNDECIDED"] >= 4 and seen["INEQUIVALENT"] > 50, seen
    assert seen["EQUIVALENT"] > 150, seen


def test_candidates_are_the_permutations_with_a_scaling():
    """The search keeps exactly the permutations whose scaling solve finds a
    scaling or runs out of budget: the pruned ones return None before the
    budget check, and nothing that could be pruned survives."""
    rng = random.Random(5)
    fields = [GF(2), GF(3), GF(2, 2), GF(5), GF(7), GF(2, 3), GF(3, 2)]
    pairs = []
    for _ in range(150):
        field = rng.choice(fields)
        n = rng.randint(1, 5)
        k = rng.randint(0, n)
        c1 = LinearCode(field, random_generator(field, rng, n, k))
        c2 = (monomial_image(field, c1, rng.sample(range(n), n), rng) if rng.random() < 0.5
              else LinearCode(field, random_generator(field, rng, n, k)))
        pairs.append((field, c1, c2))
    field = GF(2, 4)
    code = LinearCode(field, repetition_sum((1, 1, 1, 1, 2)))
    pairs.append((field, code, monomial_image(field, code, rng.sample(range(6), 6), rng)))
    seen = Counter()
    for field, c1, c2 in pairs:
        if c1.dimension() != c2.dimension():
            continue
        r2, pivots = c2._reduced()
        checks = left_kernel(field, r2.T)
        kept = list(_candidate_permutations(field, c1.rref, r2, pivots))
        outcomes = {p: scaling_outcome(_scaling_for_permutation, field, c1.rref[:, p], checks)
                    for p in permutations(range(c1.n))}
        assert kept == [p for p, found in outcomes.items() if found is not None]
        seen.update("budget" if found == "budget" else found is not None
                    for found in outcomes.values())
    assert seen["budget"] and seen[True] > 500 and seen[False] > 2000, seen


@pytest.mark.parametrize("pm,k", [((11,), 2), ((11,), 3), ((13,), 3), ((13,), 4)])
def test_witness_is_the_first_permutation_with_a_scaling(pm, k, monkeypatch):
    """Planted GRS pairs at n = 6 whose planted permutation sits at rank
    n!/2: the witness's permutation is the first, in lexicographic order,
    for which a scaling exists, and the search solves one scaling system
    for it, pruning the 360 before it without a kernel.  Point sets are
    drawn until the planted permutation is that first one (the code's
    automorphisms compose with it into the other permutations that admit a
    scaling)."""
    field, n = GF(*pm), 6
    rng = random.Random(f"{pm}:{k}")
    order = list(permutations(range(n)))
    planted = order[len(order) // 2]
    for _ in range(100):
        c1 = grs_code(field, rng.sample(range(field.q), n),
                      [rng.randrange(1, field.q) for _ in range(n)], k)
        c2 = monomial_image(field, c1, planted, rng)
        verdict = monomial_equivalence(c1, c2)
        assert verdict.status == "EQUIVALENT"
        perm = witness_permutation(verdict.witness)
        checks = left_kernel(field, c2.rref.T)
        earlier = islice(order, order.index(perm))
        assert all(_scaling_for_permutation(field, c1.rref[:, p], checks) is None
                   for p in earlier)
        assert _scaling_for_permutation(field, c1.rref[:, perm], checks) is not None
        if perm == planted:
            calls = []
            monkeypatch.setattr(lincode.linalg, "left_kernel",
                                lambda *args: calls.append(1) or left_kernel(*args))
            # no weight filter: the dual of c2, then one scaling solve
            assert monomial_equivalence(c1, c2, codeword_budget=1).status == "EQUIVALENT"
            assert len(calls) == 2
            return
    pytest.fail("no draw put the planted permutation first")
