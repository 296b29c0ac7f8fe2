"""Cyclic evaluation codes on the projective line from Mobius orbits.

The construction: pick a matrix A in PGL2(F_q) of order m >= 2 and a
divisor G fixed by the attached automorphism, seed an orbit at a non-fixed
rational point, and evaluate a Riemann-Roch basis of L(G) at the orbit
places in orbit order.  The resulting code is cyclic because the
automorphism realizes the coordinate rotation.

Also here: the verification report for that cyclicity argument, the three
classical special cases (Frobenius conjugates, roots of unity, additive
shifts on Artin-Schreier roots), the code-preserving transports that move
the pole of G to zero and then to infinity, the closed-form standard form
for triangular matrices, and canonicalization to the unique representative
of a given length and dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .gf import (
    GF,
    FieldElement,
    find_element_of_order,
    frobenius_orbit,
    primitive_element,
)
from .lincode import (
    DEFAULT_CODEWORD_BUDGET,
    BudgetExceededError,
    LinearCode,
    WeightEnumerator,
    min_weight,
)
from .pgl2 import (
    INF,
    MobiusMap,
    ProjPoint,
    geometric_sum,
    is_infinite,
    triangular_params,
)
from .rfield import (
    Divisor,
    Place,
    RationalFunction,
    evaluate_at_place,
    evaluate_rr_basis,
    invert_point,
    place_image,
    place_of_point,
    pole_power_basis,
    rr_basis,
)


# ---------------------------------------------------------------------------
# evaluation codes
# ---------------------------------------------------------------------------

# the most entries a generator matrix may have: deg G + 1 rows of n values
GENERATOR_ENTRY_BUDGET = 10 ** 7


def construct_ag_code(
    D: Sequence[Place],
    G: Divisor,
    basis: Sequence[RationalFunction] | None = None,
) -> LinearCode:
    """Evaluation code: rows are a basis of L(G) evaluated at the places of D
    in order, rr_basis(G) unless a basis is given.  D must consist of
    distinct rational places disjoint from the support of G; a generator of
    more than GENERATOR_ENTRY_BUDGET entries raises BudgetExceededError."""
    field = G.field
    if not D:
        raise ValueError("the evaluation divisor D must be nonempty")
    seen = set()
    for place in D:
        if not place.is_rational:
            raise ValueError(f"non-rational place {place} in D")
        if place in seen:
            raise ValueError(f"duplicate place {place} in D")
        seen.add(place)
        if G.coefficient(place) != 0:
            raise ValueError(f"supports of D and G overlap at {place}")
    needed = (len(basis) if basis is not None else G.degree + 1) * len(D)
    if needed > GENERATOR_ENTRY_BUDGET:
        raise BudgetExceededError(
            f"a generator of {needed} entries exceeds the entry budget {GENERATOR_ENTRY_BUDGET}",
            limit=GENERATOR_ENTRY_BUDGET, needed=needed,
        )
    if G.degree < 0:
        return LinearCode(field, np.zeros((0, len(D)), dtype=np.int64))
    if basis is None:
        return LinearCode(field, evaluate_rr_basis(G, D))
    return LinearCode(field, [[evaluate_at_place(f, place).val for place in D] for f in basis])


class OrbitCodeSpec:
    """A cyclic evaluation code C(A, alpha, beta, r): orbit of alpha under
    the inverse action of A supplies D, and G = r * P_beta for a fixed point
    beta of A, with 1 <= r <= n - 2."""

    __slots__ = ("matrix", "alpha", "beta", "r", "orbit", "n")

    def __init__(self, matrix: MobiusMap, alpha: ProjPoint, beta: ProjPoint, r: int):
        if matrix.is_identity():
            raise ValueError("the identity matrix generates no orbit")
        if matrix.apply_inverse(alpha) == alpha:
            raise ValueError(f"seed {alpha} is fixed by the matrix")
        if matrix.apply_inverse(beta) != beta:
            raise ValueError(f"pole point {beta} is not fixed by the matrix")
        orbit = matrix.orbit(alpha)
        n = len(orbit)
        if beta in orbit:
            raise ValueError("pole point lies on the orbit")  # unreachable: beta is fixed
        if not 1 <= r <= n - 2:
            raise ValueError(f"pole order must satisfy 1 <= r <= n-2 = {n - 2}, got {r}")
        self.matrix = matrix
        self.alpha = alpha
        self.beta = beta
        self.r = r
        self.orbit = orbit
        self.n = n

    @property
    def field(self) -> GF:
        return self.matrix.field

    @property
    def places(self) -> list[Place]:
        return [place_of_point(self.field, t) for t in self.orbit]

    @property
    def divisor(self) -> Divisor:
        return Divisor.of_place(place_of_point(self.field, self.beta), self.r)

    def __repr__(self) -> str:
        return (
            f"OrbitCodeSpec(matrix={self.matrix}, alpha={self.alpha}, "
            f"beta={self.beta}, r={self.r})"
        )


def construct_orbit_code(spec: OrbitCodeSpec, pole_basis: bool = False) -> LinearCode:
    """Build the code of a spec.  With pole_basis=True (finite beta only) the
    rows evaluate (1, 1/(x-beta), ..., 1/(x-beta)^r) instead of the default
    Riemann-Roch basis; the row space is the same."""
    basis = None
    if pole_basis:
        if is_infinite(spec.beta):
            raise ValueError("the inverse-power basis needs a finite pole point")
        basis = pole_power_basis(spec.beta, spec.r)
    return construct_ag_code(spec.places, spec.divisor, basis=basis)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class CyclicityReport:
    """Independent checks of the cyclicity argument for an evaluation code.

    Flags that need an automorphism are None when none was supplied (the
    Frobenius construction moves constants, not x, so it carries no matrix).
    The weight enumerator (None when not constructible or over budget)
    gives the distance; `code` is the code the checks ran on (None when not
    constructible).
    """

    n: int
    m: int | None
    isotropy: int | None
    dimension: int
    distance: int | None
    weight_enumerator: WeightEnumerator | None
    full_space: bool
    places_distinct: bool
    supports_disjoint: bool
    shift_condition: bool | None
    d_invariant: bool | None
    g_invariant: bool | None
    order_divisibility: bool | None
    induced_shift_solvable: bool
    code_cyclic: bool
    code: LinearCode | None = None

    @property
    def all_ok(self) -> bool:
        flags = [
            self.places_distinct,
            self.supports_disjoint,
            self.shift_condition,
            self.d_invariant,
            self.g_invariant,
            self.order_divisibility,
            self.induced_shift_solvable,
            self.code_cyclic,
        ]
        return all(f for f in flags if f is not None)

    def flag_items(self) -> list[tuple[str, bool | None]]:
        return [
            ("places_distinct", self.places_distinct),
            ("supports_disjoint", self.supports_disjoint),
            ("shift_condition", self.shift_condition),
            ("d_invariant", self.d_invariant),
            ("g_invariant", self.g_invariant),
            ("order_divisibility", self.order_divisibility),
            ("induced_shift_solvable", self.induced_shift_solvable),
            ("code_cyclic", self.code_cyclic),
        ]


def _induced_shift_solvable(code: LinearCode) -> bool:
    """Eq-system check: for each row u of the reduced basis there is v in the
    row space with v(P_i) = u(P_{i+1 mod n}), solved by linear algebra against
    that basis (the generator may have many more, dependent, rows)."""
    basis = code.rref
    return all(
        linalg.solve_coordinates(code.field, basis, np.roll(row, -1)) is not None
        for row in basis
    )


def verify_cyclic_construction(
    matrix: MobiusMap | None,
    D: Sequence[Place],
    G: Divisor,
    codeword_budget: int = DEFAULT_CODEWORD_BUDGET,
) -> CyclicityReport:
    """Evaluate every cyclicity flag independently; failures of the flags are
    carried in the report, not raised.  Raises BudgetExceededError as
    construct_ag_code does, and AssertionError if the default generator is
    not rr_basis(G) evaluated place by place."""
    field = G.field
    n = len(D)
    places_distinct = len(set(D)) == n and all(p.is_rational for p in D)
    supports_disjoint = all(G.coefficient(p) == 0 for p in D)
    shift_condition = d_invariant = g_invariant = order_divisibility = None
    m = isotropy = None
    if matrix is not None:
        images = [place_image(matrix, p) for p in D]
        shift_condition = all(
            images[i] == D[(i + 1) % n] for i in range(n)
        )
        d_invariant = sorted(images, key=Place.sort_key) == sorted(D, key=Place.sort_key)
        moved = Divisor(field, {place_image(matrix, p): c for p, c in G.items()})
        g_invariant = moved == G
        m = matrix.order()
        order_divisibility = m % n == 0
        isotropy = m // n if order_divisibility else None
    constructible = places_distinct and supports_disjoint
    if constructible:
        code = construct_ag_code(D, G)
        if not np.array_equal(code.generator, construct_ag_code(D, G, rr_basis(G)).generator):
            raise AssertionError("the Vandermonde rows differ from rr_basis(G) evaluated on D")
        dimension = code.dimension()
        code_cyclic = code.is_cyclic()
        induced = _induced_shift_solvable(code)
        try:
            weights = code.weight_enumerator(codeword_budget)
        except BudgetExceededError:
            weights = None
    else:
        code = None
        dimension = 0
        code_cyclic = False
        induced = False
        weights = None
    return CyclicityReport(
        n=n,
        m=m,
        isotropy=isotropy,
        dimension=dimension,
        distance=min_weight(weights.counts) if weights is not None else None,
        weight_enumerator=weights,
        full_space=dimension == n,
        places_distinct=places_distinct,
        supports_disjoint=supports_disjoint,
        shift_condition=shift_condition,
        d_invariant=d_invariant,
        g_invariant=g_invariant,
        order_divisibility=order_divisibility,
        induced_shift_solvable=induced,
        code_cyclic=code_cyclic,
        code=code,
    )


# ---------------------------------------------------------------------------
# the three classical special cases
# ---------------------------------------------------------------------------

def frobenius_code(
    p: int, m: int, r: int, s: int
) -> tuple[LinearCode, CyclicityReport]:
    """Evaluate L(r*P_0 + s*P_inf) at the Frobenius conjugates of a primitive
    element of GF(p^m).  The rotation comes from a -> a^p (which fixes x), so
    the report carries no matrix flags; cyclicity is certified by the shift
    test."""
    if m < 2:
        raise ValueError("need extension degree m >= 2 for a nontrivial orbit")
    field = GF(p, m)
    alpha = primitive_element(field)
    conjugates = frobenius_orbit(alpha)
    n = len(conjugates)
    if r + s >= n:
        raise ValueError(f"need r + s < n = {n}, got r + s = {r + s}")
    D = [Place.at(e) for e in conjugates]
    G = Divisor(field, {Place.at(field.zero): r, Place.infinity(field): s})
    report = verify_cyclic_construction(None, D, G)
    return report.code, report


def roots_of_unity_code(
    field: GF, n: int, r: int, s: int
) -> tuple[LinearCode, CyclicityReport]:
    """Evaluate L(r*P_0 + s*P_inf) at the n-th roots of unity in root-power
    order; the rotation is induced by a scaling of order n."""
    if n < 2:
        raise ValueError("need n >= 2 roots of unity")
    if r + s > n - 2:
        raise ValueError(f"need r + s <= n - 2 = {n - 2}, got {r + s}")
    omega = find_element_of_order(field, n)
    matrix = MobiusMap.scaling(omega)
    orbit = matrix.orbit(field.one)
    D = [place_of_point(field, t) for t in orbit]
    G = Divisor(field, {Place.at(field.zero): r, Place.infinity(field): s})
    report = verify_cyclic_construction(matrix, D, G)
    return report.code, report


def artin_schreier_code(field: GF, s: int) -> tuple[LinearCode, CyclicityReport]:
    """Evaluate L(s*P_inf) at the roots of x^p - x - a (a = alpha^p - alpha
    for the canonical alpha outside the prime field); the rotation is induced
    by x -> x - 1 and the length is the characteristic p."""
    if field.m < 2:
        raise ValueError("need a proper extension field (m >= 2)")
    if s < 1:
        raise ValueError(f"pole order s must be >= 1, got {s}")
    alpha = field.from_value(field.p)  # the generator b, outside GF(p)
    matrix = MobiusMap(field.one, -field.one, field.zero, field.one)  # x -> x - 1
    orbit = matrix.orbit(alpha)
    D = [place_of_point(field, t) for t in orbit]
    G = Divisor.of_place(Place.infinity(field), s)
    report = verify_cyclic_construction(matrix, D, G)
    return report.code, report


# ---------------------------------------------------------------------------
# code-preserving transports of the pole point
# ---------------------------------------------------------------------------

def transport_pole_to_zero(spec: OrbitCodeSpec) -> OrbitCodeSpec:
    """Move G = r*P_beta (beta finite nonzero) to r*P_0 by the translation
    x -> x + beta; the matrix conjugates and the orbit shifts by -beta.  The
    transported spec generates the same code (row-space equality)."""
    beta = spec.beta
    if is_infinite(beta) or beta.is_zero():
        raise ValueError("transport needs a finite nonzero pole point")
    shift = MobiusMap.translation(beta)
    conjugated = shift.inverse() * spec.matrix * shift
    new_alpha = shift.apply_inverse(spec.alpha)
    return OrbitCodeSpec(conjugated, new_alpha, spec.field.zero, spec.r)


def transport_zero_to_infinity(spec: OrbitCodeSpec) -> OrbitCodeSpec:
    """Swap the roles of zero and infinity: a matrix [[1, 0], [c, d]] fixing
    zero becomes [[d, c], [0, 1]] fixing infinity and the orbit inverts
    elementwise.  The transported spec generates the same code."""
    if is_infinite(spec.beta) or not spec.beta.is_zero():
        raise ValueError("transport needs pole point zero")
    _a, b, c, d = spec.matrix.entries
    if b:
        raise AssertionError("matrix fixing zero must have b = 0")
    if is_infinite(spec.alpha) or not spec.alpha.is_zero():
        new_alpha = invert_point(spec.field, spec.alpha)
    else:  # unreachable: zero is fixed, never a seed
        raise ValueError("seed zero cannot be inverted")
    swapped = MobiusMap.from_values(spec.field, d, c, 0, 1)
    return OrbitCodeSpec(swapped, new_alpha, INF, spec.r)


# ---------------------------------------------------------------------------
# closed standard form for triangular matrices
# ---------------------------------------------------------------------------

def closed_standard_form(matrix: MobiusMap, alpha: FieldElement, r: int) -> np.ndarray:
    """The W of the standard form (I_k | W) of the code of a triangular
    matrix [[1, -b], [0, a]] with pole at infinity, computed entrywise from
    geometric sums in a alone: it does not depend on b or on the seed.

    Entry (i, j), 1-indexed with the column offset k:

        (-1)^(k-i) * a^((k-i)(k-i+1)/2)
            * prod_{s<i}  S(j-s)/S(i-s) * prod_{s>i}^{k} S(j-s)/S(s-i)

    where S(c) = 1 + a + ... + a^(c-1) summed explicitly, so a = 1 needs no
    special case.
    """
    a, _b = triangular_params(matrix)
    field = matrix.field
    n = matrix.order()
    if n < 3:
        raise ValueError(f"matrix order must be >= 3, got {n}")
    if is_infinite(alpha):
        raise ValueError("seed must be finite")
    if matrix.apply_inverse(alpha) == alpha:
        raise ValueError("seed is fixed by the matrix")
    if not 1 <= r <= n - 2:
        raise ValueError(f"need 1 <= r <= n-2 = {n - 2}, got {r}")
    k = r + 1
    sums = [None] + [geometric_sum(a, c) for c in range(1, n)]
    neg_one = -field.one
    W = np.zeros((k, n - k), dtype=np.int64)
    for i in range(1, k + 1):
        base = (neg_one ** (k - i)) * a ** ((k - i) * (k - i + 1) // 2)
        for j in range(k + 1, n + 1):
            val = base
            for s in range(1, i):
                val = val * sums[j - s] / sums[i - s]
            for s in range(i + 1, k + 1):
                val = val * sums[j - s] / sums[s - i]
            W[i - 1, j - k - 1] = val.val
    return W


# ---------------------------------------------------------------------------
# canonicalization
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class CanonicalResult:
    spec: OrbitCodeSpec
    relation: str  # EQUAL | EQUIVALENT
    witness: np.ndarray


def canonicalize(spec: OrbitCodeSpec) -> CanonicalResult:
    """Reduce a spec to the canonical representative of its (length,
    dimension) class: pole moves to zero, then to infinity; a triangular
    matrix with a != 1 becomes the scaling by the canonically smallest
    element of order n (column-permutation witness when a differs), and
    a = 1 becomes [[1, 1], [0, 1]] with seed 1.

    The relation is EQUAL when every step preserved the code exactly, else
    EQUIVALENT; the returned monomial witness always satisfies
    (input code) . witness = (canonical code) and is verified before
    returning."""
    field = spec.field
    n = spec.n
    original = spec
    if not is_infinite(spec.beta) and not spec.beta.is_zero():
        spec = transport_pole_to_zero(spec)
    if not is_infinite(spec.beta):
        spec = transport_zero_to_infinity(spec)
    a, _b = triangular_params(spec.matrix)
    relation = "EQUAL"
    witness = np.eye(n, dtype=np.int64)
    if a == field.one:
        canonical = OrbitCodeSpec(MobiusMap.translation(field.one), field.one, INF, spec.r)
    else:
        c = find_element_of_order(field, n)
        canonical = OrbitCodeSpec(MobiusMap.scaling(c), field.one, INF, spec.r)
        if a != c:
            relation = "EQUIVALENT"
            witness = _power_reindex_permutation(field, a, c, n)
    source_code = construct_orbit_code(original)
    target_code = construct_orbit_code(canonical)
    if not source_code.apply_monomial(witness).equals(target_code):
        raise AssertionError("canonicalization witness failed verification")
    if relation == "EQUAL" and not source_code.equals(target_code):
        raise AssertionError("EQUAL canonicalization changed the row space")
    return CanonicalResult(canonical, relation, witness)


def _power_reindex_permutation(field: GF, a: FieldElement, c: FieldElement, n: int) -> np.ndarray:
    """Permutation matrix sending the column at the point a^i to the column
    at the same point in the c-power ordering (the two cyclic subgroups of
    order n coincide)."""
    a_index = {}
    cur = field.one
    for i in range(n):
        a_index[cur.val] = i
        cur = cur * a
    witness = np.zeros((n, n), dtype=np.int64)
    cur = field.one
    for j in range(n):
        witness[a_index[cur.val], j] = 1
        cur = cur * c
    return witness
