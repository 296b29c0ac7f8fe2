"""Generic linear-code engine over GF(q).

Codes are row spaces of integer-encoded generator matrices (numpy int64,
values in [0, q)).  Rows may be dependent; every derived quantity uses the
rank.  Exhaustive kernels (minimum distance, weight enumerator) enumerate
all q^dim codewords in chunks and are guarded by an explicit budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations, product

import numpy as np

from . import linalg
from .gf import GF

DEFAULT_CODEWORD_BUDGET = 10 ** 7
DEFAULT_PERMUTATION_BUDGET = 40320  # 8!
_CHUNK = 1 << 18


class BudgetExceededError(RuntimeError):
    """An exhaustive search was asked to exceed its enumeration budget."""


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

    @classmethod
    def zero_code(cls, field: GF, n: int) -> "LinearCode":
        code = cls.__new__(cls)
        code.field = field
        code.generator = np.zeros((0, n), dtype=np.int64)
        code.n = n
        code._rref = None
        code._pivots = None
        return code

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

    def contains(self, word) -> bool:
        basis, pivots = self._reduced()
        vec = np.array([getattr(e, "val", e) for e in word], dtype=np.int64)
        return linalg.in_row_space(self.field, basis, pivots, vec)

    def codewords(self) -> np.ndarray:
        """All q^dim codewords (budget-free; intended for small codes)."""
        basis, _ = self._reduced()
        words = np.zeros((1, self.n), dtype=np.int64)
        scalars = np.arange(self.field.q, dtype=np.int64)
        for row in basis:
            multiples = self.field.np_mul(scalars[:, None], row[None, :])
            words = self.field.np_add(words[:, None, :], multiples[None, :, :]).reshape(
                -1, self.n
            )
        return words

    # -- parameters ----------------------------------------------------------------

    def weight_distribution(self, budget: int = DEFAULT_CODEWORD_BUDGET) -> np.ndarray:
        """Exact weight counts W[0..n] by exhaustive enumeration."""
        basis, _ = self._reduced()
        k = basis.shape[0]
        q = self.field.q
        total = q ** k
        if total > budget:
            raise BudgetExceededError(
                f"enumerating {total} codewords exceeds the budget {budget}"
            )
        counts = np.zeros(self.n + 1, dtype=np.int64)
        if k == 0:
            counts[0] = 1
            return counts
        scalars = np.arange(q, dtype=np.int64)
        lead = 0
        block = np.zeros((1, self.n), dtype=np.int64)
        while lead < k and block.shape[0] * q <= _CHUNK:
            multiples = self.field.np_mul(scalars[:, None], basis[lead][None, :])
            block = self.field.np_add(
                block[:, None, :], multiples[None, :, :]
            ).reshape(-1, self.n)
            lead += 1
        rest = basis[lead:]
        if rest.shape[0] == 0:
            weights = np.count_nonzero(block, axis=1)
            return np.bincount(weights, minlength=self.n + 1).astype(np.int64)
        for combo in product(range(q), repeat=rest.shape[0]):
            offset = np.zeros(self.n, dtype=np.int64)
            for cval, row in zip(combo, rest):
                if cval:
                    offset = self.field.np_add(offset, self.field.np_mul(cval, row))
            chunk = self.field.np_add(block, offset[None, :])
            weights = np.count_nonzero(chunk, axis=1)
            counts += np.bincount(weights, minlength=self.n + 1)
        return counts

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
        s(c_1, ..., c_n) = (c_2, ..., c_n, c_1)."""
        basis, pivots = self._reduced()
        for row in self.generator:
            shifted = np.roll(row, -1)
            if not linalg.in_row_space(self.field, basis, pivots, shifted):
                return False
        return True

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
        """The code C.M for a monomial matrix M (values in [0, q))."""
        moved = np.zeros_like(self.generator)
        field = self.field
        for i in range(self.n):
            for j in range(self.n):
                v = int(witness[i, j])
                if v:
                    moved[:, j] = field.np_add(
                        moved[:, j], field.np_mul(v, self.generator[:, i])
                    )
        return LinearCode(field, moved)

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
    rows = []
    for h in checks:
        for w in permuted_rref:
            rows.append(field.np_mul(h, w))
    system = np.array(rows, dtype=np.int64)
    kernel = linalg.left_kernel(field, system.T)
    dim = kernel.shape[0]
    if dim == 0:
        return None
    if any(not kernel[:, j].any() for j in range(n)):
        return None  # some coordinate is forced to zero
    if field.q ** dim > 1 << 16:
        raise BudgetExceededError("scaling search space too large")
    scalars = range(field.q)
    for combo in product(scalars, repeat=dim):
        if all(c == 0 for c in combo):
            continue
        vec = np.zeros(n, dtype=np.int64)
        for cval, basis_row in zip(combo, kernel):
            if cval:
                vec = field.np_add(vec, field.np_mul(cval, basis_row))
        if vec.all():
            return vec
    return None


def monomial_equivalence(
    c1: LinearCode,
    c2: LinearCode,
    codeword_budget: int = DEFAULT_CODEWORD_BUDGET,
    permutation_budget: int = DEFAULT_PERMUTATION_BUDGET,
) -> MonomialVerdict:
    """Decide monomial equivalence (column permutation composed with nonzero
    column scalings) constructively.

    Pipeline: dimension/length filter, weight-enumerator filter, then for
    each column permutation a linear feasibility check for the scalings
    against the dual of the target code.  Returns an explicit witness on
    success; UNDECIDED only when a budget was exhausted.
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
            "UNDECIDED", reason=f"{n}! permutations exceed the budget"
        )
    field = c1.field
    g1, _ = c1._reduced()
    checks = linalg.right_kernel(field, c2.rref)
    undecided = False
    for perm in permutations(range(n)):
        permuted = g1[:, perm]
        try:
            scaling = _scaling_for_permutation(field, permuted, checks)
        except BudgetExceededError:
            undecided = True
            continue
        if scaling is None:
            continue
        witness = np.zeros((n, n), dtype=np.int64)
        for pos, src in enumerate(perm):
            witness[src, pos] = int(scaling[pos])
        moved = c1.apply_monomial(witness)
        if not moved.equals(c2):
            raise AssertionError("scaling feasibility produced a bad witness")
        return MonomialVerdict("EQUIVALENT", witness=witness)
    if undecided:
        return MonomialVerdict("UNDECIDED", reason="scaling search budget exhausted")
    return MonomialVerdict("INEQUIVALENT", reason="no permutation admits a scaling")
