"""Independent exact arithmetic for generating benchmark inputs and checking
outputs, written without using the library under test.

Field elements use the library's integer encoding: the value of
c_0 + c_1 b + ... + c_{m-1} b^{m-1} is c_0 + c_1 p + ... + c_{m-1} p^{m-1},
where b is a root of the canonical modulus (the monic irreducible of degree
m whose coefficient tuple (a_{m-1}, ..., a_0) is lexicographically
smallest).  Irreducibility is decided here by trial division, a different
algorithm from the library's, so the two moduli agreeing is itself a check.

Projective points are ints in [0, q) with INF = q standing for infinity.
"""

from __future__ import annotations

from itertools import permutations
from math import comb, gcd


def _digits(val: int, p: int, m: int) -> list[int]:
    out = []
    for _ in range(m):
        out.append(val % p)
        val //= p
    return out


def _poly_rem(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num by the monic polynomial den (ascending coefficients)."""
    num = list(num)
    d = len(den) - 1
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i] % p
        if c:
            for j in range(d + 1):
                num[i - d + j] = (num[i - d + j] - c * den[j]) % p
    return [c % p for c in num[:d]]


def _monic_polys(p: int, degree: int):
    for tail in range(p ** degree):
        yield _digits(tail, p, degree) + [1]


def _irreducible(coeffs: list[int], p: int) -> bool:
    m = len(coeffs) - 1
    for degree in range(1, m // 2 + 1):
        for cand in _monic_polys(p, degree):
            if not any(_poly_rem(coeffs, cand, p)):
                return False
    return True


def canonical_modulus(p: int, m: int) -> tuple[int, ...]:
    if m == 1:
        return (0, 1)
    for coeffs in _monic_polys(p, m):
        if _irreducible(coeffs, p):
            return tuple(coeffs)
    raise AssertionError("every degree has an irreducible polynomial")


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def prime_factors(n: int) -> list[int]:
    return [d for d in range(2, n + 1) if n % d == 0 and is_prime(d)]


class Field:
    """GF(p^m) on the library's integer encoding, by polynomial arithmetic
    modulo the canonical modulus (log tables only as a cache for q <= 4096)."""

    def __init__(self, p: int, m: int = 1):
        self.p, self.m, self.q = p, m, p ** m
        self.modulus = canonical_modulus(p, m)
        self.inf = self.q
        self._log = self._exp = None
        if self.q <= 4096:
            gen = next(g for g in range(1, self.q) if self.order(g) == self.q - 1)
            exp = [1]
            for _ in range(self.q - 2):
                exp.append(self._mul_poly(exp[-1], gen))
            self._exp = exp
            self._log = {v: i for i, v in enumerate(exp)}

    def _mul_poly(self, a: int, b: int) -> int:
        p, m = self.p, self.m
        if m == 1:
            return a * b % p
        da, db = _digits(a, p, m), _digits(b, p, m)
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] += x * y
        rem = _poly_rem(prod, list(self.modulus), p)
        return sum(c * p ** i for i, c in enumerate(rem))

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        p = self.p
        return sum(((x + y) % p) * p ** i
                   for i, (x, y) in enumerate(zip(_digits(a, p, self.m), _digits(b, p, self.m))))

    def neg(self, a: int) -> int:
        p = self.p
        return sum(((-x) % p) * p ** i for i, x in enumerate(_digits(a, p, self.m)))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._log is not None:
            return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]
        return self._mul_poly(a, b)

    def pow(self, a: int, e: int) -> int:
        e %= self.q - 1
        out = 1
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.pow(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def order(self, a: int) -> int:
        """Multiplicative order from the prime factors of q - 1."""
        n = self.q - 1
        for ell in prime_factors(n):
            while n % ell == 0 and self._pow_poly(a, n // ell) == 1:
                n //= ell
        return n

    def _pow_poly(self, a: int, e: int) -> int:
        out = 1
        while e:
            if e & 1:
                out = self._mul_poly(out, a)
            a = self._mul_poly(a, a)
            e >>= 1
        return out

    def elements_of_order(self, n: int) -> list[int]:
        """All elements of multiplicative order n (n | q - 1), as powers of
        one of them."""
        if (self.q - 1) % n:
            raise ValueError(f"{n} does not divide q - 1 = {self.q - 1}")
        for g in range(2, self.q):
            if self.order(g) == self.q - 1:
                w = self.pow(g, (self.q - 1) // n)
                return sorted(self.pow(w, e) for e in range(1, n + 1) if gcd(e, n) == 1)
        if n == 1:
            return [1]
        raise AssertionError("GF(q) has a primitive element")

    def format(self, val: int) -> str:
        """The library's printed form of an element (its CLI input syntax)."""
        if self.m == 1:
            return str(val)
        if val == 0:
            return "0"
        parts = []
        digits = _digits(val, self.p, self.m)
        for power in range(self.m - 1, -1, -1):
            c = digits[power]
            if c == 0:
                continue
            if power == 0:
                parts.append(str(c))
            else:
                stem = "b" if power == 1 else f"b^{power}"
                parts.append(stem if c == 1 else f"{c}{stem}")
        return "+".join(parts)

    def format_point(self, t: int) -> str:
        return "inf" if t == self.inf else self.format(t)


# ---------------------------------------------------------------------------
# PGL2 on the projective line
# ---------------------------------------------------------------------------

def mat_mul(F: Field, A, B):
    a, b, c, d = A
    e, f, g, h = B
    return (F.add(F.mul(a, e), F.mul(b, g)), F.add(F.mul(a, f), F.mul(b, h)),
            F.add(F.mul(c, e), F.mul(d, g)), F.add(F.mul(c, f), F.mul(d, h)))


def mat_inv(F: Field, A):
    a, b, c, d = A
    return (d, F.neg(b), F.neg(c), a)


def normalize(F: Field, A):
    """Scale so the first nonzero entry in row-major order is 1."""
    lead = next(x for x in A if x)
    inv = F.inv(lead)
    return tuple(F.mul(x, inv) for x in A)


def apply(F: Field, A, t: int) -> int:
    """Forward action t -> (a t + b)/(c t + d) on the projective line."""
    a, b, c, d = A
    if t == F.inf:
        return F.inf if c == 0 else F.div(a, c)
    den = F.add(F.mul(c, t), d)
    if den == 0:
        return F.inf
    return F.div(F.add(F.mul(a, t), b), den)


def column(F: Field, t: int) -> tuple[int, int]:
    return (1, 0) if t == F.inf else (t, 1)


def matrix_with_fixed_points(F: Field, kind: str, n: int, beta: int, other: int, rng):
    """A matrix of order n in PGL2(F) fixing beta, and its fixed points, built
    by conjugating a normal form: diag(1, lam) with lam of order n fixes 0 and
    inf (kind 'hyperbolic', other = the second fixed point); [[1, 1], [0, 1]]
    fixes only inf and has order p (kind 'parabolic', other = any point !=
    beta, used to complete the conjugating basis)."""
    if kind == "hyperbolic":
        lam = rng.choice(F.elements_of_order(n))
        normal = (1, 0, 0, lam)
    else:
        normal = (1, 1, 0, 1)
    (x1, y1), (x2, y2) = column(F, beta), column(F, other)
    if kind == "parabolic":
        # any scalar multiple of the second column gives another conjugate
        s = rng.randrange(1, F.q)
        x2, y2 = F.mul(s, x2), F.mul(s, y2)
    T = (x1, x2, y1, y2)  # columns: inf -> beta, 0 -> other
    A = normalize(F, mat_mul(F, mat_mul(F, T, normal), mat_inv(F, T)))
    return A, [beta, other] if kind == "hyperbolic" else [beta]


def inverse_orbit(F: Field, A, alpha: int) -> list[int]:
    """(alpha, A^-1.alpha, A^-2.alpha, ...) up to the first repetition."""
    Ainv = mat_inv(F, A)
    out = [alpha]
    cur = apply(F, Ainv, alpha)
    while cur != alpha:
        out.append(cur)
        cur = apply(F, Ainv, cur)
    return out


def format_matrix(F: Field, A) -> str:
    a, b, c, d = A
    return f"{F.format(a)},{F.format(b)};{F.format(c)},{F.format(d)}"


def mobius_through(F: Field, src, dst):
    """The unique Mobius map sending three distinct finite points src to dst."""
    def to_standard(s1, s2, s3):
        # x -> (x - s1)(s3 - s2) / ((x - s2)(s3 - s1)) sends s1, s2, s3 to 0, inf, 1
        u, v = F.sub(s3, s2), F.sub(s3, s1)
        return (u, F.neg(F.mul(s1, u)), v, F.neg(F.mul(s2, v)))
    return mat_mul(F, mat_inv(F, to_standard(*dst)), to_standard(*src))


def projectively_equivalent(F: Field, S1, S2) -> bool:
    """Whether some Mobius map carries the finite point set S1 onto S2."""
    if len(S1) != len(S2):
        return False
    target = set(S2)
    src = tuple(S1[:3])
    return any(all(apply(F, mobius_through(F, src, dst), t) in target for t in S1)
               for dst in permutations(S2, 3))


def stabilizer_permutations(F: Field, S) -> list[tuple[int, ...]]:
    """For each Mobius map preserving the finite point set S, the index
    permutation pi with sigma(S[i]) = S[pi[i]]."""
    index = {t: i for i, t in enumerate(S)}
    out = []
    for dst in permutations(S, 3):
        A = mobius_through(F, tuple(S[:3]), dst)
        images = [apply(F, A, t) for t in S]
        if all(t in index for t in images):
            out.append(tuple(index[t] for t in images))
    return out


# ---------------------------------------------------------------------------
# codes
# ---------------------------------------------------------------------------

def grs_rows(F: Field, points, multipliers, k: int) -> list[list[int]]:
    """Generator of the generalized Reed-Solomon code: row j is v_i x_i^j."""
    rows = []
    for j in range(k):
        rows.append([F.mul(v, F.pow(x, j) if x else int(j == 0))
                     for x, v in zip(points, multipliers)])
    return rows


def mds_weight_distribution(q: int, n: int, k: int) -> list[int]:
    """A_w of an [n, k] MDS code over GF(q) (MacWilliams-Sloane ch. 11 Thm 6):
    A_w = C(n,w) sum_{j=0}^{w-d} (-1)^j C(w,j) (q^{w-d+1-j} - 1), d = n-k+1."""
    d = n - k + 1
    out = [1] + [0] * n
    for w in range(d, n + 1):
        out[w] = comb(n, w) * sum((-1) ** j * comb(w, j) * (q ** (w - d + 1 - j) - 1)
                                  for j in range(w - d + 1))
    return out


def rank(F: Field, rows) -> int:
    rows = [list(r) for r in rows]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def monomial_image(F: Field, rows, perm, scales) -> list[list[int]]:
    """Column j of the image is scales[j] times column perm[j] of rows."""
    return [[F.mul(s, row[src]) for src, s in zip(perm, scales)] for row in rows]


def is_monomial(q: int, witness) -> bool:
    n = len(witness)
    nonzero = [[j for j in range(n) if witness[i][j]] for i in range(n)]
    cols = sorted(c for row in nonzero for c in row)
    return (all(len(row) == 1 for row in nonzero) and cols == list(range(n))
            and all(0 <= witness[i][j] < q for i in range(n) for j in range(n)))
