"""Exact arithmetic in finite fields GF(p^m), with q = p^m <= 2^16.

Elements are stored as integers in [0, q) encoding their coefficient vector
in the polynomial basis, least significant digit first:

    value = c_0 + c_1*p + ... + c_{m-1}*p^{m-1}.

Integer order of this encoding equals lexicographic order on the coefficient
tuple read from the highest power down, and it is the canonical order used
for every deterministic choice in the library (canonical moduli, primitive
elements, elements of a prescribed order).

The printable form writes elements as polynomials in the generator symbol
``b`` (the residue class of x modulo the field modulus), e.g. ``b+1`` or
``2b^2+1``; prime-field elements print as plain integers.  The token ``inf``
is reserved for the point at infinity of the projective line and is never a
field element.

Arithmetic is table-driven: each field stores the powers g^i of its canonical
primitive element and their logarithms, built by integer arithmetic mod p in
prime fields and by linear algebra over GF(p) in extension fields.  Products,
inverses and powers are table lookups in every field.  Sums take ``% p`` in
prime fields, ``xor`` in GF(2^m), and Zech's logarithm Z(k) = log(1 + g^k) in
the other fields: a + b = g^(log a + Z(log b - log a)).  The scalar (int) and
numpy (array) paths read the same tables, and base-p digits appear only in
the table build and in element input/output.
"""

from __future__ import annotations

from functools import cache
from math import gcd
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

MAX_Q = 1 << 16


def is_prime(n: int) -> bool:
    return n >= 2 and prime_factors(n) == [n]


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending (none for n < 2)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _digits(val: int, p: int, m: int) -> list[int]:
    """The m base-p digits of val, least significant first."""
    out = []
    for _ in range(m):
        val, d = divmod(val, p)
        out.append(d)
    return out


def _matpow(M: np.ndarray, e: int, p: int) -> np.ndarray:
    """M^e over GF(p) by repeated squaring, also for a stack of matrices (in
    float64, exact: entries are below p and m * p^2 < 2^53)."""
    result = np.eye(M.shape[-1])
    while e:
        if e & 1:
            result = result @ M % p
        M = M @ M % p
        e >>= 1
    return result


def _prime_field_powers(p: int) -> tuple[int, list[int]]:
    """g and g^0, ..., g^(p-2) in GF(p), where products are integers mod p."""
    n = p - 1
    factors = prime_factors(n)
    gen = next((c for c in range(2, p) if all(pow(c, n // ell, p) != 1 for ell in factors)), 1)
    exp = [1] * n
    for i in range(1, n):
        exp[i] = exp[i - 1] * gen % p
    return gen, exp


def _extension_field_powers(p: int, m: int, modulus: Sequence[int]) -> tuple[int, list[int]]:
    """g and g^0, ..., g^(q-2) in GF(p^m), m >= 2, by linear algebra over GF(p):
    multiplication by the element with digits (c_0, ..., c_{m-1}) is the map
    v -> v (c_0 I + c_1 C + ... + c_{m-1} C^{m-1}) on digit rows, C the
    modulus's companion matrix.  Candidates are tested in blocks of about
    1024 matrix entries through M^((q-1)/l), and the digit rows of the
    powers of g double with one product per step: rows[k:2k] = rows[:k] M^k.
    """
    q = p ** m
    n = q - 1
    weights = p ** np.arange(m)  # the value of a digit row is row @ weights
    companion = np.eye(m, k=1)  # x * x^i = x^(i+1)
    companion[m - 1] = [-c % p for c in modulus[:m]]  # x * x^(m-1) = x^m
    powers = [np.eye(m)]
    for _ in range(m - 1):
        powers.append(powers[-1] @ companion % p)
    powers = np.array(powers)
    block = 1024 // m ** 2
    for start in range(2, q, block):
        vals = np.arange(start, min(q, start + block))
        Ms = (vals[:, None] // weights % p @ powers.reshape(m, m * m)).reshape(-1, m, m) % p
        primitive = np.ones(len(vals), dtype=bool)
        for ell in prime_factors(n):
            primitive &= (_matpow(Ms, n // ell, p)[:, 0] != powers[0, 0]).any(axis=1)
        if primitive.any():
            i = int(primitive.argmax())
            gen, M = start + i, Ms[i]
            break
    rows = np.zeros((n, m), dtype=np.min_scalar_type(p - 1))
    rows[0, 0] = 1
    k = 1
    while k < n:
        for lo in range(0, min(k, n - k), 4096):  # blocks bound the temporaries
            hi = min(lo + 4096, k, n - k)
            rows[k + lo:k + hi] = (rows[lo:hi] @ M).astype(np.int64) % p
        M = M @ M % p
        k *= 2
    return gen, (rows @ weights).tolist()


def _is_irreducible_over(prime: "GF", coeffs: Sequence[int]) -> bool:
    """The library's one irreducibility test, applied over the prime field."""
    from .rfield import Polynomial  # deferred: rfield builds on this module

    return Polynomial.from_values(prime, coeffs).is_irreducible()


@cache
def canonical_modulus(p: int, m: int) -> tuple[int, ...]:
    """Monic irreducible of degree m over GF(p) with the lexicographically
    smallest coefficient tuple (a_{m-1}, ..., a_0).  Searched once per (p, m)
    in a process."""
    if m == 1:
        return (0, 1)
    prime = GF(p)
    for tail in range(p ** m):
        coeffs = _digits(tail, p, m) + [1]
        if _is_irreducible_over(prime, coeffs):
            return tuple(coeffs)
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# field descriptor and elements
# ---------------------------------------------------------------------------

class GF:
    """A finite field GF(p^m) with precomputed discrete-log tables.

    Immutable after construction; all operations are pure.
    """

    def __init__(self, p: int, m: int = 1, modulus: Sequence[int] | None = None):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if m < 1:
            raise ValueError(f"extension degree must be >= 1, got {m}")
        q = p ** m
        if q > MAX_Q:
            raise ValueError(f"field size {q} exceeds the supported bound {MAX_Q}")
        self.p = p
        self.m = m
        self.q = q
        if modulus is None:
            self.modulus = canonical_modulus(p, m)
        else:
            mod = tuple(int(c) % p for c in modulus)
            if len(mod) != m + 1 or mod[-1] != 1:
                raise ValueError(f"modulus must be monic of degree {m}")
            if not _is_irreducible_over(GF(p), mod):
                raise ValueError("modulus is reducible over the prime field")
            self.modulus = mod
        self._build_tables()

    # -- tables ----------------------------------------------------------------

    def _build_tables(self) -> None:
        """Powers and logarithms of the canonical primitive element g, the
        smallest value >= 2 with g^((q-1)/l) != 1 for each prime l | q-1."""
        p, m, q = self.p, self.m, self.q
        n = q - 1
        if m == 1:
            gen, exp = _prime_field_powers(p)
        else:
            gen, exp = _extension_field_powers(p, m, self.modulus)
        log = [-1] * q
        for i, v in enumerate(exp):
            log[v] = i
        self._gen_val, self._exp, self._log = gen, exp, log
        self._np_exp = np.array(exp * 2)
        self._np_log = np.array(log)
        self._np_log[0] = 0  # a placeholder: the numpy paths mask zero operands
        if p > 2 and m > 1:  # the fields that add through Zech's table
            # Z(k) = log(1 + g^k): add 1 to the lowest digit of g^k.  Where
            # 1 + g^k = 0 (k = n/2) it is -1 = log 0.  It is read at
            # k = log b - log a in (-n, n), a negative k indexing from the end.
            self._zech = [log[v - v % p + (v + 1) % p] for v in exp]
            self._np_zech = np.array(self._zech)

    # -- integer-level arithmetic (values in [0, q)) -------------------------

    def add_i(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if a == 0 or b == 0:
            return a or b
        la = self._log[a]
        z = self._zech[self._log[b] - la]  # a + b = a (1 + b/a)
        return 0 if z < 0 else self._exp[(la + z) % (self.q - 1)]

    def neg_i(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        if self.p == 2 or a == 0:
            return a
        n = self.q - 1
        return self._exp[(self._log[a] + n // 2) % n]  # -1 = g^((q-1)/2)

    def sub_i(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a - b) % self.p
        if self.p == 2:
            return a ^ b
        return self.add_i(a, self.neg_i(b))

    def mul_i(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def axpy_i(self, y: list[int], a: int, x: list[int]) -> list[int]:
        """The list y + a*x, for equal-length lists of values: the one row
        operation of the elimination in linalg, one call per row."""
        if a == 0:
            return list(y)
        if self.m == 1:
            p = self.p
            return [(u + a * v) % p for u, v in zip(y, x)]
        exp, log, n = self._exp, self._log, self.q - 1
        la = log[a]
        if self.p == 2:
            return [u ^ exp[(la + log[v]) % n] if v else u for u, v in zip(y, x)]
        zech = self._zech
        out = []
        for u, v in zip(y, x):
            if u and v:  # u + a*v = u (1 + a*v/u)
                lu = log[u]
                z = zech[(la + log[v] - lu) % n]
                out.append(0 if z < 0 else exp[(lu + z) % n])
            else:
                out.append(exp[(la + log[v]) % n] if v else u)
        return out

    def inv_i(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def div_i(self, a: int, b: int) -> int:
        return self.mul_i(a, self.inv_i(b))

    def pow_i(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    # -- vectorized arithmetic on integer-encoded numpy arrays ---------------

    def np_add(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.m == 1:
            return (x + y) % self.p
        if self.p == 2:
            return np.bitwise_xor(x, y)
        x, y = np.asarray(x), np.asarray(y)
        lx = self._np_log[x]
        z = self._np_zech[self._np_log[y] - lx]
        total = np.where(z < 0, 0, self._np_exp[lx + z])
        return np.where(x == 0, y, np.where(y == 0, x, total))

    def np_mul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x, y = np.asarray(x), np.asarray(y)
        prod = self._np_exp[self._np_log[x] + self._np_log[y]]
        return np.where((x == 0) | (y == 0), 0, prod)

    # -- element constructors -------------------------------------------------

    def from_value(self, val: int) -> "FieldElement":
        """Element with the given integer encoding (coefficient vector in base p)."""
        if not 0 <= val < self.q:
            raise ValueError(f"value {val} out of range for {self!r}")
        return FieldElement(self, val)

    def element(self, x: Union[int, str, "FieldElement", Iterable[int]]) -> "FieldElement":
        """Coerce x to a field element.

        Integers are taken modulo p (prime-subfield semantics); strings are
        parsed in the printable form; iterables are coefficient vectors
        (ascending powers of the generator).
        """
        if isinstance(x, FieldElement):
            if x.field != self:
                raise ValueError("element from a different field")
            return x
        if isinstance(x, bool):
            raise TypeError("bool is not a field element")
        if isinstance(x, int):
            return FieldElement(self, x % self.p)
        if isinstance(x, str):
            return self.parse(x)
        coeffs = [int(c) % self.p for c in x]
        if len(coeffs) > self.m:
            raise ValueError("too many coefficients")
        return FieldElement(self, sum(c * self.p ** i for i, c in enumerate(coeffs)))

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    @property
    def generator(self) -> "FieldElement":
        """The residue class of x modulo the modulus (printed as ``b``)."""
        if self.m == 1:
            raise ValueError("prime fields have no polynomial-basis generator")
        return FieldElement(self, self.p)

    def elements(self) -> Iterator["FieldElement"]:
        for v in range(self.q):
            yield FieldElement(self, v)

    def units(self) -> Iterator["FieldElement"]:
        for v in range(1, self.q):
            yield FieldElement(self, v)

    # -- parsing / printing ----------------------------------------------------

    def parse(self, s: str) -> "FieldElement":
        text = s.replace(" ", "")
        if not text:
            raise ValueError("empty element string")
        if text == "inf":
            raise ValueError("'inf' denotes the point at infinity, not a field element")
        text = text.replace("-", "+-")
        if text.startswith("+-"):
            text = text[1:]
        val = 0
        for term in text.split("+"):
            if not term:
                raise ValueError(f"malformed element string {s!r}")
            val = self.add_i(val, self._parse_term(term, s))
        return FieldElement(self, val)

    def _parse_term(self, term: str, orig: str) -> int:
        neg = term.startswith("-")
        if neg:
            term = term[1:]
        if "b" in term:
            if self.m == 1:
                raise ValueError(f"generator symbol in prime-field element {orig!r}")
            head, _, tail = term.partition("b")
            coeff = int(head) % self.p if head else 1
            if tail.startswith("^"):
                power = int(tail[1:])
            elif tail == "":
                power = 1
            else:
                raise ValueError(f"malformed element string {orig!r}")
            if not 0 <= power:
                raise ValueError(f"malformed element string {orig!r}")
            base = self.pow_i(self.p, power) if power else 1
            val = self.mul_i(coeff, base)
        else:
            val = int(term) % self.p
        return self.neg_i(val) if neg else val

    def format_value(self, val: int) -> str:
        if self.m == 1:
            return str(val)
        if val == 0:
            return "0"
        digits = _digits(val, self.p, self.m)
        parts = []
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

    # -- identity -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GF)
            and self.p == other.p
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __repr__(self) -> str:
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"


class FieldElement:
    """An element of a GF descriptor; canonical (value-based) representation."""

    __slots__ = ("field", "val")

    def __init__(self, field: GF, val: int):
        self.field = field
        self.val = val

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError("mixed fields in element arithmetic")
            return other
        if isinstance(other, int):
            return self.field.element(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.add_i(self.val, o.val))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.sub_i(self.val, o.val))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.sub_i(o.val, self.val))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul_i(self.val, o.val))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.div_i(self.val, o.val))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.div_i(o.val, self.val))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg_i(self.val))

    def __pow__(self, e: int):
        if e < 0:
            return FieldElement(self.field, self.field.pow_i(self.field.inv_i(self.val), -e))
        return FieldElement(self.field, self.field.pow_i(self.val, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv_i(self.val))

    # -- structure ------------------------------------------------------------

    @property
    def coeffs(self) -> tuple[int, ...]:
        return tuple(_digits(self.val, self.field.p, self.field.m))

    def is_zero(self) -> bool:
        return self.val == 0

    def order(self) -> int:
        """Multiplicative order; errors on zero."""
        if self.val == 0:
            raise ValueError("the zero element has no multiplicative order")
        if self.val == 1:
            return 1
        n = self.field.q - 1
        return n // gcd(n, self.field._log[self.val])

    def frobenius(self) -> "FieldElement":
        return self ** self.field.p

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FieldElement):
            return self.val == other.val and self.field == other.field
        if isinstance(other, int):
            return self.val == other % self.field.p if self.val < self.field.p else False
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.val, self.field.p, self.field.m))

    def __bool__(self) -> bool:
        return self.val != 0

    def __int__(self) -> int:
        return self.val

    def __str__(self) -> str:
        return self.field.format_value(self.val)

    def __repr__(self) -> str:
        return self.field.format_value(self.val)


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def primitive_element(field: GF) -> FieldElement:
    """The canonically smallest element of multiplicative order q - 1."""
    return field.from_value(field._gen_val)


def frobenius_orbit(a: FieldElement) -> tuple[FieldElement, ...]:
    """(a, a^p, a^{p^2}, ...) up to but not including the first repetition."""
    out = [a]
    x = a.frobenius()
    while x != a:
        out.append(x)
        x = x.frobenius()
    return tuple(out)


def find_element_of_order(field: GF, n: int) -> FieldElement:
    """The canonically smallest element of multiplicative order exactly n."""
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    if (field.q - 1) % n != 0:
        raise ValueError(f"no element of order {n} in {field!r}: {n} does not divide q-1")
    step = (field.q - 1) // n  # the elements of order n are g^(k*step), gcd(k, n) = 1
    return field.from_value(min(field._exp[k * step] for k in range(n) if gcd(k, n) == 1))


def parse_field_spec(spec: str, modulus: Sequence[int] | None = None) -> GF:
    """Build a field from a CLI spec like ``7`` or ``2^4``."""
    text = spec.strip()
    if "^" in text:
        p_str, _, m_str = text.partition("^")
        return GF(int(p_str), int(m_str), modulus)
    q = int(text)
    factors = prime_factors(q)
    if len(factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    m = 1
    while factors[0] ** m < q:
        m += 1
    return GF(factors[0], m, modulus)
