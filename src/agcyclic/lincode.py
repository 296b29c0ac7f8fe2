"""Generic linear-code engine over GF(q).

Codes are row spaces of integer-encoded generator matrices (numpy int64,
values in [0, q)).  Rows may be dependent; every derived quantity uses the
rank.  The exhaustive kernels (minimum distance, weight enumerator)
enumerate the smaller of C and its dual one word per line, (q^dim - 1)/(q - 1)
words against one block of at most _CHUNK entries, comparing words instead
of adding them, and map a dual distribution back by the MacWilliams
identity in exact integers.  Their budget bounds q^dim, the size of the
code decided, whichever side is enumerated.

Monomial equivalence walks the column permutations depth first in
lexicographic order and prunes a branch only where the scaling system of
every permutation below it forces a coordinate to zero (Leon's partition
backtrack, IEEE Trans. IT 28(3), 1982, as an exact prune with no invariant
heuristics); survivors are solved and verified as in the full n! walk, so
the first hit is the walk's witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .gf import GF

DEFAULT_CODEWORD_BUDGET = 10 ** 7
DEFAULT_PERMUTATION_BUDGET = 40320  # 8!
_CHUNK = 1 << 21  # entries of the enumeration block (16 MiB as int64)


class BudgetExceededError(RuntimeError):
    """An exhaustive search was asked to exceed its enumeration budget:
    `needed` words (or candidates) against a `limit`."""

    def __init__(self, message: str, *, limit: int, needed: int):
        super().__init__(message)
        self.limit = limit
        self.needed = needed


def _check_budget(total: int, budget: int) -> None:
    if total > budget:
        raise BudgetExceededError(
            f"enumerating {total} codewords exceeds the budget {budget}",
            limit=budget, needed=total,
        )


def _span(field: GF, basis: np.ndarray) -> np.ndarray:
    """All q^k combinations of the k rows of basis, in lexicographic order of
    the coefficient vectors (the first row's coefficient slowest); row 0 is
    the zero word."""
    n = basis.shape[1]
    words = np.zeros((1, n), dtype=np.int64)
    scalars = np.arange(field.q, dtype=np.int64)
    for row in basis:
        multiples = field.np_mul(scalars[:, None], row[None, :])
        words = field.np_add(words[:, None, :], multiples[None, :, :]).reshape(-1, n)
    return words


def _compared(words: np.ndarray, word: np.ndarray) -> np.ndarray:
    """Counts, by weight, of the rows of words - word: it is zero exactly
    where words == word."""
    return np.bincount(np.count_nonzero(words != word, axis=1), minlength=words.shape[1] + 1)


def _enumerated_weights(field: GF, basis: np.ndarray) -> np.ndarray:
    """Weight counts of the span of the k independent rows of basis, one word
    per line: the words row_i + span(rows after i), i = 0..k-1, counted q - 1
    times, plus the zero word.  The span of the last t rows, t <= k - 1 the
    largest with q^t * n <= _CHUNK, is built once as the block; in _span
    order span(rows after i) is its prefix of q^(k-i-1) words when
    k - i - 1 <= t, else the block plus each offset in row_i + span(rows
    i+1 .. k-t-1).  A subspace S runs over its negatives, so the weights of
    o + S are those of S - o, counted by comparing."""
    q, (k, n) = field.q, basis.shape
    tail = 0
    while tail < k - 1 and q ** (tail + 1) * n <= _CHUNK:
        tail += 1
    block = _span(field, basis[k - tail:])
    counts = np.zeros(n + 1, dtype=np.int64)
    for i, row in enumerate(basis):
        rest = k - i - 1
        if rest <= tail:
            counts += _compared(block[: q ** rest], row)
        else:
            for offset in field.np_add(_span(field, basis[i + 1 : k - tail]), row[None, :]):
                counts += _compared(block, offset)
    counts *= q - 1
    counts[0] += 1
    return counts


def _macwilliams(q: int, dual_counts) -> list[int]:
    """Weight counts A_j of C from the counts B_i of its dual, a q-ary code
    of length n = len(dual_counts) - 1 and dimension m (MacWilliams-Sloane,
    ch. 5): sum_j A_j y^j = q^-m sum_i B_i (1 + (q-1) y)^(n-i) (1 - y)^i,
    accumulated Horner-style in O(n^2) integer operations."""
    total: list[int] = []  # sum_{i <= t} B_i (1 + (q-1)y)^(t-i) (1-y)^i
    power = [1]  # (1 - y)^t
    for count in map(int, dual_counts):
        total = [a + (q - 1) * b for a, b in zip(total + [0], [0] + total)]
        total = [a + count * c for a, c in zip(total, power)]
        power = [a - b for a, b in zip(power + [0], [0] + power)]
    size = sum(map(int, dual_counts))  # q^m
    out = []
    for a in total:
        quotient, remainder = divmod(a, size)
        if remainder:
            raise AssertionError("MacWilliams transform is not integral")
        out.append(quotient)
    return out


class LinearCode:
    """A linear code presented by a generator matrix (rows spanning the code)."""

    def __init__(self, field: GF, rows):
        gen = linalg.as_matrix(field, rows)
        if gen.ndim != 2:
            raise ValueError("generator must be a 2-D matrix")
        if gen.shape[0] > 0 and gen.shape[1] < 1:
            raise ValueError("code length must be >= 1")
        self.field = field
        self.generator = gen
        self.n = gen.shape[1]
        self._rref: np.ndarray | None = None
        self._pivots: tuple[int, ...] | None = None

    # -- row space ---------------------------------------------------------------

    def _reduced(self) -> tuple[np.ndarray, tuple[int, ...]]:
        if self._rref is None:
            self._rref, self._pivots = linalg.rref(self.field, self.generator)
        return self._rref, self._pivots

    @property
    def rref(self) -> np.ndarray:
        return self._reduced()[0]

    def dimension(self) -> int:
        return self._reduced()[0].shape[0]

    def codewords(self) -> np.ndarray:
        """All q^dim codewords, within the default codeword budget."""
        basis, _ = self._reduced()
        _check_budget(self.field.q ** basis.shape[0], DEFAULT_CODEWORD_BUDGET)
        return _span(self.field, basis)

    # -- parameters ----------------------------------------------------------------

    def weight_distribution(self, budget: int = DEFAULT_CODEWORD_BUDGET) -> np.ndarray:
        """Exact weight counts W[0..n] within a budget on q^dim.  A code of
        dimension k > n - k enumerates its dual's q^(n-k) words instead and
        maps their counts back by the MacWilliams identity."""
        basis, _ = self._reduced()
        k = basis.shape[0]
        _check_budget(self.field.q ** k, budget)
        if self.n - k >= k:
            return _enumerated_weights(self.field, basis)
        dual = linalg.left_kernel(self.field, basis.T)
        return np.array(
            _macwilliams(self.field.q, _enumerated_weights(self.field, dual)), dtype=np.int64
        )

    def weight_enumerator(self, budget: int = DEFAULT_CODEWORD_BUDGET) -> "WeightEnumerator":
        return WeightEnumerator(self, self.weight_distribution(budget))

    def min_distance(self, budget: int = DEFAULT_CODEWORD_BUDGET) -> int:
        """Exact minimum weight by exhaustive codeword enumeration."""
        if self.dimension() < 1:
            raise ValueError("the zero code has no minimum distance")
        return min_weight(self.weight_distribution(budget))

    def is_mds(self, budget: int = DEFAULT_CODEWORD_BUDGET) -> bool:
        """Singleton equality d = n - k + 1."""
        return self.min_distance(budget) == self.n - self.dimension() + 1

    # -- cyclicity -------------------------------------------------------------------

    def is_cyclic(self) -> bool:
        """Closure of the row space under the coordinate rotation
        s(c_1, ..., c_n) = (c_2, ..., c_n, c_1), tested on the k rows of the
        reduced basis: s is linear, so they decide it for the whole code."""
        basis, pivots = self._reduced()
        return all(
            linalg.in_row_space(self.field, basis, pivots, row[1:] + row[:1])
            for row in basis.tolist()
        )

    # -- standard form ------------------------------------------------------------

    def standard_form(self) -> tuple[tuple[int, ...], np.ndarray]:
        """Column permutation and W with generator row-equivalent, after the
        permutation, to (I_k | W).  The permutation is the identity when the
        leading k columns are independent."""
        k = self.dimension()
        if k < 1:
            raise ValueError("the zero code has no standard form")
        basis, pivots = self._reduced()
        perm = tuple(pivots) + tuple(c for c in range(self.n) if c not in pivots)
        permuted = basis[:, perm]
        return perm, permuted[:, k:]

    # -- comparisons ----------------------------------------------------------------

    def equals(self, other: "LinearCode") -> bool:
        """Same row space (identical reduced row echelon forms)."""
        if self.field != other.field or self.n != other.n:
            raise ValueError("codes over different fields or lengths")
        a, _ = self._reduced()
        b, _ = other._reduced()
        return a.shape == b.shape and bool((a == b).all())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearCode):
            return NotImplemented
        if self.field != other.field or self.n != other.n:
            return False
        return self.equals(other)

    def __hash__(self) -> int:
        basis, _ = self._reduced()
        return hash((self.field.p, self.field.m, self.n, basis.tobytes()))

    def apply_monomial(self, witness: np.ndarray) -> "LinearCode":
        """The code C.M for a monomial matrix M (values in [0, q)): column j
        of C.M is M[i, j] times column i of C, for the one i with M[i, j] != 0."""
        witness = np.asarray(witness)
        if (
            witness.shape != (self.n, self.n)
            or (np.count_nonzero(witness, axis=0) != 1).any()
            or (np.count_nonzero(witness, axis=1) != 1).any()
        ):
            raise ValueError("witness is not an n x n monomial matrix")
        source = np.argmax(witness != 0, axis=0)
        scale = witness[source, np.arange(self.n)]
        return LinearCode(self.field, self.field.np_mul(self.generator[:, source], scale[None, :]))

    def __repr__(self) -> str:
        return f"LinearCode(n={self.n}, k={self.dimension()} over {self.field!r})"


def min_weight(counts) -> int | None:
    """Smallest nonzero weight in a weight distribution; None when only the
    zero word is counted."""
    nonzero = np.flatnonzero(np.asarray(counts)[1:])
    return int(nonzero[0]) + 1 if nonzero.size else None


class WeightEnumerator:
    """Weight counts W[i] = number of codewords of Hamming weight i."""

    def __init__(self, code: LinearCode, counts_array: np.ndarray):
        if counts_array[0] != 1:
            raise AssertionError("weight enumerator must count the zero word once")
        if int(counts_array.sum()) != code.field.q ** code.dimension():
            raise AssertionError("weight enumerator total != q^k")
        self.code = code
        self.counts_array = counts_array

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(int(x) for x in self.counts_array)

    def __getitem__(self, i: int) -> int:
        return int(self.counts_array[i])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightEnumerator):
            return NotImplemented
        return self.counts == other.counts


# ---------------------------------------------------------------------------
# monomial equivalence
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MonomialVerdict:
    status: str  # EQUIVALENT | INEQUIVALENT | UNDECIDED
    witness: np.ndarray | None = None
    reason: str = ""
    # on UNDECIDED: the budget that ran out, and the size it was asked for
    limit: int | None = None
    needed: int | None = None

    def __bool__(self) -> bool:
        return self.status == "EQUIVALENT"


def _scaling_for_permutation(
    field: GF, permuted_rref: np.ndarray, checks: np.ndarray
) -> np.ndarray | None:
    """Diagonal scaling d (all entries nonzero) with every row of the permuted
    generator, rescaled columnwise by d, orthogonal to the dual basis; None
    when no such scaling exists."""
    n = permuted_rref.shape[1]
    if checks.shape[0] == 0 or permuted_rref.shape[0] == 0:
        return np.ones(n, dtype=np.int64)  # zero or full-space code: any scaling
    system = field.np_mul(checks[:, None, :], permuted_rref[None, :, :]).reshape(-1, n)
    kernel = linalg.left_kernel(field, system.T)
    # decided before the budget check: no kernel, or a coordinate forced to zero
    if kernel.shape[0] == 0 or not kernel.any(axis=0).all():
        return None
    needed = field.q ** kernel.shape[0]
    if needed > 1 << 16:
        raise BudgetExceededError(
            "scaling search space too large", limit=1 << 16, needed=needed
        )
    words = _span(field, kernel)
    hits = np.flatnonzero(words.all(axis=1))
    return words[hits[0]] if hits.size else None


def _candidate_permutations(field: GF, g1: np.ndarray, r2: np.ndarray, pivots):
    """Column permutations perm (target column j takes source column perm[j]
    of g1) in lexicographic order, less those whose scaling system in
    `_scaling_for_permutation` forces a coordinate to zero: it returns None
    for them before its budget check, so skipping them changes nothing.

    For d with zeros allowed, the rows of g1[:, perm] diag(d) lie in the code
    of the rref r2 exactly when that matrix is A r2, with A its pivot columns
    g1[:, src] diag(d_pivots), src the sources of the pivot columns.  The
    linear system therefore forces a coordinate to zero
    - when g1[:, src] is singular: g1 has full rank, so some source column
      outside its span feeds a non-pivot column c, and d_c = 0;
    - otherwise, with B = g1[:, src]^-1 g1, when a non-pivot column c with
      source s has B[i, s] != 0 = r2[i, c] (d_c = 0) or the reverse (the
      pivot's d = 0);
    - or when the ratios d_c / d_(pivot i) = r2[i, c] / B[i, s] disagree
      around a cycle of the bipartite graph of rows and columns, which
      forces the whole component to zero.
    Where none of these holds, every component takes a nonzero value, so a
    surviving permutation admits a scaling unless the budget stops it.  B is
    one elimination per unordered source set; the ratios live in a weighted
    union-find over the pivot rows (d_pivot_i = pot[i] * x_comp[i])."""
    n, k = g1.shape[1], len(pivots)
    mul, div = field.mul_i, field.div_i
    targets = r2.T.tolist()  # the k entries of each column of r2
    last = pivots[-1] if k else -1  # every pivot has its source from here on
    deferred = [c for c in range(last) if c not in pivots]  # checked at depth last
    inverses: dict[tuple[int, ...], dict | None] = {}

    def columns(src):
        """The columns of g1[:, src]^-1 g1, or None when g1[:, src] is singular."""
        key = tuple(sorted(src))
        if key not in inverses:
            order = list(key) + [c for c in range(n) if c not in key]
            reduced, found = linalg._rref_rows(field, g1[:, order].tolist(), n)
            inverses[key] = None if found != tuple(range(k)) else {
                c: [row[j] for row in reduced] for j, c in enumerate(order)}
        cols = inverses[key]
        if cols is None:
            return None
        rank = [key.index(s) for s in src]
        return [[cols[s][r] for r in rank] for s in range(n)]

    def constrain(state, source, target):
        """state with the equations of one non-pivot column added, or None
        when they force a coordinate to zero."""
        comp, pot = state
        anchor = None
        for i, (b, t) in enumerate(zip(source, target)):
            if not b or not t:
                if b or t:
                    return None  # zero patterns differ
                continue
            v = mul(div(t, b), pot[i])  # d_c / x_comp[i]
            if anchor is None:
                anchor, va = comp[i], v
            elif comp[i] == anchor:
                if v != va:
                    return None  # inconsistent ratios
            else:  # x_comp[i] = x_anchor * va / v
                old, f = comp[i], div(va, v)
                pot = [mul(p, f) if x == old else p for x, p in zip(comp, pot)]
                comp = [anchor if x == old else x for x in comp]
        return comp, pot

    def search(perm, free, cols, state):
        j = len(perm)
        if j == n:
            yield tuple(perm)
            return
        for s in free:
            sub_cols, sub_state = cols, state
            if j == last:  # B is known from here: check the deferred columns
                sub_cols = columns([perm[c] for c in pivots[:-1]] + [s])
                if sub_cols is None:
                    continue
                for c in deferred:
                    sub_state = constrain(sub_state, sub_cols[perm[c]], targets[c])
                    if sub_state is None:
                        break
            elif j > last:
                sub_state = constrain(state, cols[s], targets[j])
            if sub_state is None:
                continue
            perm.append(s)
            yield from search(perm, [t for t in free if t != s], sub_cols, sub_state)
            perm.pop()

    start = columns([]) if k == 0 else None
    yield from search([], list(range(n)), start, (list(range(k)), [1] * k))


def monomial_equivalence(
    c1: LinearCode,
    c2: LinearCode,
    codeword_budget: int = DEFAULT_CODEWORD_BUDGET,
    permutation_budget: int = DEFAULT_PERMUTATION_BUDGET,
) -> MonomialVerdict:
    """Decide monomial equivalence (column permutation composed with nonzero
    column scalings) constructively.

    Pipeline: dimension/length filter, weight-enumerator filter, the n!
    permutation budget, then a lexicographic depth-first search over the
    column permutations that skips those whose scaling system forces a
    coordinate to zero (`_candidate_permutations`), and for each survivor
    the linear feasibility check for the scalings against the dual of the
    target code.  The pruned permutations are exactly those for which that
    check returns None before its budget check, so the verdict, the reason
    and the witness (the first hit in lexicographic order) are those of the
    walk over all n! permutations.  Returns an explicit witness on success;
    UNDECIDED only when a budget was exhausted, with that budget's `limit`
    and the `needed` size: n! against the permutation budget, or the q^dim
    of the first scaling search that ran out.
    """
    if c1.field != c2.field:
        raise ValueError("codes over different fields")
    if c1.n != c2.n or c1.dimension() != c2.dimension():
        return MonomialVerdict("INEQUIVALENT", reason="length or dimension differ")
    n = c1.n
    try:
        if c1.weight_enumerator(codeword_budget) != c2.weight_enumerator(codeword_budget):
            return MonomialVerdict("INEQUIVALENT", reason="weight enumerators differ")
    except BudgetExceededError:
        pass  # the invariant filter is optional; the search below is exact
    if math.factorial(n) > permutation_budget:
        return MonomialVerdict(
            "UNDECIDED", reason=f"{n}! permutations exceed the budget",
            limit=permutation_budget, needed=math.factorial(n),
        )
    field = c1.field
    g1, _ = c1._reduced()
    r2, pivots = c2._reduced()
    checks = linalg.left_kernel(field, r2.T)
    for perm in _candidate_permutations(field, g1, r2, pivots):
        permuted = g1[:, perm]
        try:
            scaling = _scaling_for_permutation(field, permuted, checks)
        except BudgetExceededError as exc:
            # Every survivor's scaling kernel has one dimension per component
            # of the graph on r2's support, which its zero pattern matches,
            # so every later survivor would run out with the same q^dim.
            return MonomialVerdict(
                "UNDECIDED", reason="scaling search budget exhausted",
                limit=exc.limit, needed=exc.needed,
            )
        if scaling is None:
            continue
        witness = np.zeros((n, n), dtype=np.int64)
        witness[list(perm), np.arange(n)] = scaling
        moved = c1.apply_monomial(witness)
        if not moved.equals(c2):
            raise AssertionError("scaling feasibility produced a bad witness")
        return MonomialVerdict("EQUIVALENT", witness=witness)
    return MonomialVerdict("INEQUIVALENT", reason="no permutation admits a scaling")
