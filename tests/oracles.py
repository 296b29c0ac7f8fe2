"""Slow, independent reference implementations for differential tests.

Each oracle decides the same question as a library routine by a more
direct method, exponential or factorization-based, so it is usable only at
test scale.
"""

from itertools import permutations, product
from math import comb, factorial

import numpy as np

from agcyclic import (
    BudgetExceededError,
    MobiusMap,
    Place,
    Polynomial,
    RationalFunction,
    factor,
    valuation,
)
from agcyclic.linalg import left_kernel
from agcyclic.lincode import (
    DEFAULT_CODEWORD_BUDGET,
    DEFAULT_PERMUTATION_BUDGET,
    MonomialVerdict,
    _scaling_for_permutation,
)
from agcyclic.rfield import INF, NEG_INF


def is_irreducible_by_trial_division(f: Polynomial) -> bool:
    """A polynomial of degree d >= 1 is irreducible unless some monic
    polynomial of degree 1..d/2 divides it; try every one."""
    d = f.degree
    if d is NEG_INF or d < 1:
        return False
    for e in range(1, int(d) // 2 + 1):
        for tail in product(range(f.field.q), repeat=e):
            if Polynomial.from_values(f.field, list(tail) + [1]).divides(f):
                return False
    return True


def in_riemann_roch_space_by_factoring(f, G) -> bool:
    """(f) >= -G, checked at every place where f has a pole (the factors of
    its denominator and infinity) and at every place where G demands a zero."""
    if f.is_zero():
        return True
    places = [Place._from_known_irreducible(w) for w, _ in factor(f.den)]
    places += [Place.infinity(f.field)] + [p for p, c in G.items() if c < 0]
    return all(valuation(f, p) >= -G.coefficient(p) for p in places)


# ---------------------------------------------------------------------------
# GF(p^m) by schoolbook polynomial arithmetic over GF(p)
# ---------------------------------------------------------------------------

def _digits(val, p):
    out = []
    while val:
        out.append(val % p)
        val //= p
    return out


def _undigits(digits, p):
    val = 0
    for d in reversed(digits):
        val = val * p + d
    return val


def mul_by_schoolbook(a, b, p, modulus):
    """Product of two value-encoded elements: multiply the digit polynomials
    over GF(p) term by term, then reduce modulo the monic modulus."""
    da, db = _digits(a, p), _digits(b, p)
    if not da or not db:
        return 0
    prod = [0] * (len(da) + len(db) - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    dm = len(modulus) - 1
    while len(prod) > dm:
        lead = prod.pop()
        shift = len(prod) - dm
        for i in range(dm):
            prod[shift + i] = (prod[shift + i] - lead * modulus[i]) % p
    return _undigits(prod, p)


def pow_by_schoolbook(a, e, p, modulus):
    result = 1
    while e:
        if e & 1:
            result = mul_by_schoolbook(result, a, p, modulus)
        a = mul_by_schoolbook(a, a, p, modulus)
        e >>= 1
    return result


def is_primitive_by_schoolbook(val, p, modulus):
    q = p ** (len(modulus) - 1)
    return all(
        pow_by_schoolbook(val, (q - 1) // ell, p, modulus) != 1
        for ell in range(2, q)
        if (q - 1) % ell == 0 and all(ell % d for d in range(2, ell))
    )


def log_tables_by_schoolbook(p, modulus):
    """(g, exp, log) for the smallest primitive value g (1 in GF(2)):
    exp[i] = g^i by repeated schoolbook multiplication, log its inverse with
    log[0] = -1."""
    q = p ** (len(modulus) - 1)
    gen = next((v for v in range(2, q) if is_primitive_by_schoolbook(v, p, modulus)), 1)
    exp = [1]
    for _ in range(q - 2):
        exp.append(mul_by_schoolbook(exp[-1], gen, p, modulus))
    log = [-1] * q
    for i, v in enumerate(exp):
        log[v] = i
    return gen, exp, log


def add_digitwise(a, b, p):
    """Sum of value-encoded elements: add base-p digits mod p."""
    out, mult = 0, 1
    while a or b:
        out += ((a + b) % p) * mult
        a //= p
        b //= p
        mult *= p
    return out


def neg_digitwise(a, p):
    out, mult = 0, 1
    while a:
        out += (-(a % p) % p) * mult
        a //= p
        mult *= p
    return out


# ---------------------------------------------------------------------------
# projective points, scalings and weight distributions
# ---------------------------------------------------------------------------

def points_equal(s, t) -> bool:
    """Equality on the projective line, with the point at infinity compared
    by identity and finite points by value."""
    if s is INF or t is INF:
        return s is t
    return s == t


def scaling_by_product_loop(field, permuted_rref, checks):
    """The first all-nonzero scaling d (in itertools.product order of the
    coefficients on the kernel basis) with every row of permuted_rref,
    rescaled by d, orthogonal to every row of checks; None when there is
    none.  The system is built one product at a time and each candidate by
    repeated addition."""
    n = permuted_rref.shape[1]
    if checks.shape[0] == 0 or permuted_rref.shape[0] == 0:
        return np.ones(n, dtype=np.int64)
    rows = []
    for h in checks:
        for w in permuted_rref:
            rows.append(field.np_mul(h, w))
    kernel = left_kernel(field, np.array(rows, dtype=np.int64).T)
    dim = kernel.shape[0]
    if dim == 0:
        return None
    if any(not kernel[:, j].any() for j in range(n)):
        return None
    if field.q ** dim > 1 << 16:
        raise BudgetExceededError(
            "scaling search space too large", limit=1 << 16, needed=field.q ** dim
        )
    for combo in product(range(field.q), repeat=dim):
        if all(c == 0 for c in combo):
            continue
        vec = np.zeros(n, dtype=np.int64)
        for cval, basis_row in zip(combo, kernel):
            if cval:
                vec = field.np_add(vec, field.np_mul(cval, basis_row))
        if vec.all():
            return vec
    return None


def monomial_equivalence_by_walk(
    c1,
    c2,
    codeword_budget=DEFAULT_CODEWORD_BUDGET,
    permutation_budget=DEFAULT_PERMUTATION_BUDGET,
):
    """Monomial equivalence by the full walk: the same filters as
    `monomial_equivalence`, then one scaling solve for every one of the n!
    column permutations in lexicographic order; the first that admits a
    scaling gives the witness."""
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
    if factorial(n) > permutation_budget:
        return MonomialVerdict(
            "UNDECIDED", reason=f"{n}! permutations exceed the budget"
        )
    field = c1.field
    g1, _ = c1._reduced()
    checks = left_kernel(field, c2.rref.T)
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
        witness[list(perm), np.arange(n)] = scaling
        moved = c1.apply_monomial(witness)
        if not moved.equals(c2):
            raise AssertionError("scaling feasibility produced a bad witness")
        return MonomialVerdict("EQUIVALENT", witness=witness)
    if undecided:
        return MonomialVerdict("UNDECIDED", reason="scaling search budget exhausted")
    return MonomialVerdict("INEQUIVALENT", reason="no permutation admits a scaling")


def weights_by_brute_force(field, generator):
    """Weight counts of the row space of generator: every coefficient vector
    from itertools.product, each word built by scalar operations and kept in
    a set, so that dependent rows count each word once."""
    rows, n = generator.shape
    words = set()
    for coeffs in product(range(field.q), repeat=rows):
        word = [0] * n
        for c, row in zip(coeffs, generator.tolist()):
            word = [field.add_i(w, field.mul_i(c, v)) for w, v in zip(word, row)]
        words.add(tuple(word))
    counts = [0] * (n + 1)
    for word in words:
        counts[sum(1 for w in word if w)] += 1
    return counts


def krawtchouk(q, n, j, i):
    """K_j(i) = sum_s (-1)^s (q-1)^(j-s) C(i, s) C(n-i, j-s), in integers."""
    return sum(
        (-1) ** s * (q - 1) ** (j - s) * comb(i, s) * comb(n - i, j - s)
        for s in range(j + 1)
    )


def dual_weights_by_macwilliams(q, n, k, counts):
    """Weight distribution of the dual of a q-ary [n, k] code with weight
    distribution counts: B_j = q^-k sum_i A_i K_j(i), exactly."""
    out = []
    for j in range(n + 1):
        total = sum(int(a) * krawtchouk(q, n, j, i) for i, a in enumerate(counts))
        if total % q ** k:
            raise AssertionError("MacWilliams transform is not integral")
        out.append(total // q ** k)
    return out


# ---------------------------------------------------------------------------
# Mobius maps through FieldElement arithmetic
# ---------------------------------------------------------------------------

def normalized_by_elements(a, b, c, d):
    """The entries of [[a, b], [c, d]] scaled so that the first nonzero one
    in row-major order is 1, by FieldElement arithmetic; ValueError on
    entries from mixed fields or a zero determinant."""
    field = a.field
    for e in (b, c, d):
        if e.field != field:
            raise ValueError("matrix entries from mixed fields")
    if (a * d - b * c).is_zero():
        raise ValueError("degenerate matrix: ad - bc = 0")
    inv = next(e for e in (a, b, c, d) if not e.is_zero()).inverse()
    return a * inv, b * inv, c * inv, d * inv


def product_by_elements(x, y):
    """Normalized entries of the product of two entry tuples."""
    a, b, c, d = x
    e, f, g, h = y
    return normalized_by_elements(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def inverse_by_elements(x):
    """Normalized entries of the inverse of an entry tuple: the adjugate."""
    a, b, c, d = x
    return normalized_by_elements(d, -b, -c, a)


def apply_inverse_by_elements(matrix, t):
    """A^{-1}.t by FieldElement arithmetic: (dt - b)/(a - ct), with
    A^{-1}.inf = -d/c (inf when c = 0) and a = ct sent to inf."""
    a, b, c, d = matrix.a, matrix.b, matrix.c, matrix.d
    if t is INF:
        return INF if c.is_zero() else -d / c
    denom = a - c * t
    if denom.is_zero():
        return INF
    return (d * t - b) / denom


def fixed_points_by_elements(matrix):
    field = matrix.field
    out = set()
    for t in list(field.elements()) + [INF]:
        if points_equal(apply_inverse_by_elements(matrix, t), t):
            out.add(t)
    return out


def orbit_by_elements(matrix, alpha):
    """(alpha, A^{-1}.alpha, ...) up to the first repetition, by FieldElement
    arithmetic."""
    out = [alpha]
    cur = apply_inverse_by_elements(matrix, alpha)
    while not points_equal(cur, alpha):
        out.append(cur)
        if len(out) > matrix.field.q + 1:
            raise AssertionError("orbit exceeded the projective line")
        cur = apply_inverse_by_elements(matrix, cur)
    return tuple(out)


def order_by_normalized_products(matrix):
    """Order of a MobiusMap: multiply normalized MobiusMap objects until the
    product is the identity."""
    acc, n = matrix, 1
    while not acc.is_identity():
        acc = acc * matrix
        n += 1
        if n > 2 * (matrix.field.q + 1):
            raise AssertionError("order loop failed to terminate")
    return n


def invariant_generator_eagerly(matrix):
    """(method, z) for the first of the trace, the norm and the second power
    sum of the x-images with degree equal to the order m of matrix, z made
    monic, after building all three; ValueError when none has degree m."""
    m = matrix.order()
    field = matrix.field
    images = []
    power = MobiusMap.identity(field)
    for _ in range(m):
        images.append(RationalFunction(
            Polynomial(field, [power.b, power.a]), Polynomial(field, [power.d, power.c])))
        power = power * matrix
    trace = images[0]
    for f in images[1:]:
        trace = trace + f
    norm = images[0]
    for f in images[1:]:
        norm = norm * f
    psum2 = images[0] * images[0]
    for f in images[1:]:
        psum2 = psum2 + f * f
    for method, z in (("trace", trace), ("norm", norm), ("power-sum-2", psum2)):
        if z.degree == m:
            return method, RationalFunction(z.num.monic(), z.den)
    raise ValueError("no invariant generator of full degree")
