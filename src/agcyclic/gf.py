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
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

MAX_Q = 1 << 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
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


# ---------------------------------------------------------------------------
# raw polynomial arithmetic over GF(p), used only to bootstrap field tables
# ---------------------------------------------------------------------------

def _polymod_p(a: list[int], mod: Sequence[int], p: int) -> list[int]:
    a = list(a)
    dm = len(mod) - 1
    while len(a) > dm:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i in range(dm):
                a[shift + i] = (a[shift + i] - lead * mod[i]) % p
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def _polymulmod_p(a: Sequence[int], b: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = (out[i + j] + ai * bj) % p
    return _polymod_p(out, mod, p)


def _is_irreducible_over(prime: "GF", coeffs: Sequence[int]) -> bool:
    """The library's one irreducibility test, applied over the prime field."""
    from .rfield import Polynomial  # deferred: rfield builds on this module

    return Polynomial.from_values(prime, coeffs).is_irreducible()


def canonical_modulus(p: int, m: int) -> tuple[int, ...]:
    """Monic irreducible of degree m over GF(p) with the lexicographically
    smallest coefficient tuple (a_{m-1}, ..., a_0)."""
    if m == 1:
        return (0, 1)
    prime = GF(p)
    for tail in range(p ** m):
        coeffs = []
        t = tail
        for _ in range(m):
            coeffs.append(t % p)
            t //= p
        coeffs.append(1)
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
        self._build_log_tables()
        self._np_exp: np.ndarray | None = None
        self._np_log: np.ndarray | None = None

    # -- construction of exp/log tables -------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        da, db = self._digits(a), self._digits(b)
        prod = _polymulmod_p(da, db, self.modulus, self.p)
        return self._undigits(prod)

    def _digits(self, val: int) -> list[int]:
        out = []
        while val:
            out.append(val % self.p)
            val //= self.p
        return out

    def _undigits(self, digits: Sequence[int]) -> int:
        val = 0
        for d in reversed(digits):
            val = val * self.p + d
        return val

    def _build_log_tables(self) -> None:
        q = self.q
        if q == 2:
            self._gen_val = 1
            self._exp = [1]
            self._log = [-1, 0]
            return
        factors = prime_factors(q - 1)
        gen = 0
        for cand in range(2, q):
            if all(self._pow_raw(cand, (q - 1) // ell) != 1 for ell in factors):
                gen = cand
                break
        # 1 has order 1; the smallest primitive value is >= 2 except in GF(2)
        exp = [1] * (q - 1)
        cur = 1
        for i in range(1, q - 1):
            cur = self._mul_raw(cur, gen)
            exp[i] = cur
        log = [-1] * q
        for i, v in enumerate(exp):
            log[v] = i
        self._gen_val = gen
        self._exp = exp
        self._log = log

    def _pow_raw(self, a: int, e: int) -> int:
        result = 1
        base = a
        while e:
            if e & 1:
                result = self._mul_raw(result, base)
            base = self._mul_raw(base, base)
            e >>= 1
        return result

    # -- integer-level arithmetic (values in [0, q)) -------------------------

    def add_i(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        p = self.p
        out, mult = 0, 1
        while a or b:
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg_i(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        p = self.p
        out, mult = 0, 1
        while a:
            out += ((p - a % p) % p) * mult
            a //= p
            mult *= p
        return out

    def sub_i(self, a: int, b: int) -> int:
        return self.add_i(a, self.neg_i(b))

    def mul_i(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

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

    def _ensure_np_tables(self) -> None:
        if self._np_exp is None:
            self._np_exp = np.array(self._exp + self._exp, dtype=np.int64)
            log = np.array(self._log, dtype=np.int64)
            log[0] = 0  # placeholder, masked out by np_mul
            self._np_log = log

    def np_add(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.m == 1:
            return (x + y) % self.p
        if self.p == 2:
            return np.bitwise_xor(x, y)
        p = self.p
        out = np.zeros(np.broadcast(x, y).shape, dtype=np.int64)
        xs, ys, mult = np.asarray(x), np.asarray(y), 1
        for _ in range(self.m):
            out += ((xs + ys) % p) * mult
            xs, ys = xs // p, ys // p
            mult *= p
        return out

    def np_mul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        self._ensure_np_tables()
        xs, ys = np.asarray(x), np.asarray(y)
        prod = self._np_exp[self._np_log[xs] + self._np_log[ys]]
        return np.where((xs == 0) | (ys == 0), 0, prod)

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
        return FieldElement(self, self._undigits(coeffs))

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
        digits = self._digits(val)
        parts = []
        for power in range(len(digits) - 1, -1, -1):
            c = digits[power] if power < len(digits) else 0
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
        d = self.field._digits(self.val)
        return tuple(d + [0] * (self.field.m - len(d)))

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
    for v in range(1, field.q):
        e = field.from_value(v)
        if e.order() == n:
            return e
    raise AssertionError("unreachable: divisor of q-1 must be realized")


def parse_field_spec(spec: str, modulus: Sequence[int] | None = None) -> GF:
    """Build a field from a CLI spec like ``7`` or ``2^4``."""
    text = spec.strip()
    if "^" in text:
        p_str, _, m_str = text.partition("^")
        return GF(int(p_str), int(m_str), modulus)
    q = int(text)
    if is_prime(q):
        return GF(q, 1, modulus)
    for p in range(2, q):
        if is_prime(p):
            m, t = 0, q
            while t % p == 0:
                t //= p
                m += 1
            if t == 1 and m >= 1:
                return GF(p, m, modulus)
            if q % p == 0:
                break
    raise ValueError(f"{q} is not a prime power")
