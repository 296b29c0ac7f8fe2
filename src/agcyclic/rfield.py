"""Polynomials and rational functions over GF(q); places, divisors and
Riemann-Roch spaces of the rational function field.

Places of the rational function field are either rational (a point of the
projective line: a field element or infinity) or given by a monic
irreducible polynomial of degree >= 2.  Divisors are finite integer
combinations of places.  Everything here is immutable and exact.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from typing import Iterable, Sequence, Union

import numpy as np

from . import linalg
from .gf import GF, FieldElement

NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# projective points
# ---------------------------------------------------------------------------

class _Infinity:
    """The point at infinity of the projective line (field-agnostic singleton)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"

    def __str__(self) -> str:
        return "inf"


INF = _Infinity()

ProjPoint = Union[FieldElement, _Infinity]


def is_infinite(t: ProjPoint) -> bool:
    return t is INF


def invert_point(field: GF, t: ProjPoint) -> ProjPoint:
    """t -> 1/t on the projective line (0 <-> inf)."""
    if t is INF:
        return field.zero
    if t.val == 0:
        return INF
    return t.inverse()


def parse_point(field: GF, s: str) -> ProjPoint:
    text = s.strip()
    if text == "inf":
        return INF
    return field.parse(text)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class Polynomial:
    """Dense polynomial over GF(q), coefficients stored as value-encoded ints
    ascending by degree, with no trailing zeros (the zero polynomial has an
    empty coefficient tuple and degree -inf)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: GF, coeffs: Iterable):
        vals = []
        for c in coeffs:
            if isinstance(c, FieldElement):
                if c.field != field:
                    raise ValueError("coefficient from a different field")
                vals.append(c.val)
            else:
                vals.append(int(c) % field.p)
        while vals and vals[-1] == 0:
            vals.pop()
        self.field = field
        self.coeffs = tuple(vals)

    @classmethod
    def from_values(cls, field: GF, vals: Sequence[int]) -> "Polynomial":
        p = cls.__new__(cls)
        v = list(vals)
        while v and v[-1] == 0:
            v.pop()
        p.field = field
        p.coeffs = tuple(v)
        return p

    @classmethod
    def zero(cls, field: GF) -> "Polynomial":
        return cls.from_values(field, [])

    @classmethod
    def one(cls, field: GF) -> "Polynomial":
        return cls.from_values(field, [1])

    @classmethod
    def x(cls, field: GF) -> "Polynomial":
        return cls.from_values(field, [0, 1])

    @classmethod
    def constant(cls, c: FieldElement) -> "Polynomial":
        return cls.from_values(c.field, [c.val])

    @classmethod
    def x_minus(cls, gamma: FieldElement) -> "Polynomial":
        return cls.from_values(gamma.field, [gamma.field.neg_i(gamma.val), 1])

    # -- structure ----------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def leading(self) -> FieldElement:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.field.from_value(self.coeffs[-1])

    def monic(self) -> "Polynomial":
        if self.is_zero() or self.is_monic():
            return self
        inv = self.field.inv_i(self.coeffs[-1])
        return Polynomial.from_values(
            self.field, [self.field.mul_i(c, inv) for c in self.coeffs]
        )

    def coefficient(self, i: int) -> FieldElement:
        v = self.coeffs[i] if 0 <= i < len(self.coeffs) else 0
        return self.field.from_value(v)

    # -- arithmetic -----------------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.field != other.field:
            raise ValueError("mixed fields in polynomial arithmetic")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        out = [
            f.add_i(a[i] if i < len(a) else 0, b[i] if i < len(b) else 0)
            for i in range(n)
        ]
        return Polynomial.from_values(f, out)

    def __neg__(self) -> "Polynomial":
        f = self.field
        return Polynomial.from_values(f, [f.neg_i(c) for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, FieldElement):
            other = Polynomial.constant(other)
        self._check(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial.zero(f)
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = f.add_i(out[i + j], f.mul_i(ai, bj))
        return Polynomial.from_values(f, out)

    def __rmul__(self, other):
        if isinstance(other, FieldElement):
            return self * other
        return NotImplemented

    def scale(self, c: int) -> "Polynomial":
        f = self.field
        return Polynomial.from_values(f, [f.mul_i(x, c) for x in self.coeffs])

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.one(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        rem = list(self.coeffs)
        den = other.coeffs
        dd = len(den) - 1
        inv_lead = f.inv_i(den[-1])
        quot = [0] * max(len(rem) - dd, 0)
        while len(rem) > dd:
            lead = f.mul_i(rem[-1], inv_lead)
            shift = len(rem) - 1 - dd
            quot[shift] = lead
            if lead:
                for i in range(dd + 1):
                    rem[shift + i] = f.sub_i(rem[shift + i], f.mul_i(lead, den[i]))
            rem.pop()
        return Polynomial.from_values(f, quot), Polynomial.from_values(f, rem)

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def divides(self, other: "Polynomial") -> bool:
        return (other % self).is_zero()

    def derivative(self) -> "Polynomial":
        f = self.field
        out = []
        for i in range(1, len(self.coeffs)):
            c = 0
            for _ in range(i % f.p):
                c = f.add_i(c, self.coeffs[i])
            out.append(c)
        return Polynomial.from_values(f, out)

    # -- evaluation and roots ---------------------------------------------------

    def eval_i(self, val: int) -> int:
        f = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = f.add_i(f.mul_i(acc, val), c)
        return acc

    def __call__(self, point) -> FieldElement:
        e = self.field.element(point)
        return self.field.from_value(self.eval_i(e.val))

    def roots(self) -> list[FieldElement]:
        """Roots in the coefficient field, by exhaustive evaluation."""
        return [self.field.from_value(v) for v in range(self.field.q) if self.eval_i(v) == 0]

    def is_irreducible(self) -> bool:
        """Berlekamp criterion over GF(q): f is squarefree and the fixed space
        of the Frobenius map on GF(q)[x]/(f) is the constants alone."""
        if self.degree < 1:  # constants, and the zero polynomial (-inf)
            return False
        if self.degree >= 2 and self.coeffs[0] == 0:  # x divides f
            return False
        g = self.monic()
        if poly_gcd(g, g.derivative()).degree != 0:
            return False
        return _frobenius_fixed_kernel(g).shape[0] == 1

    # -- identity ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.field.m, self.coeffs))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        f = self.field
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            cs = f.format_value(c)
            if i == 0:
                parts.append(cs)
                continue
            stem = "x" if i == 1 else f"x^{i}"
            if c == 1:
                parts.append(stem)
            elif ("+" in cs) or len(cs) > 1 and not cs.isdigit():
                parts.append(f"({cs}){stem}")
            else:
                parts.append(f"{cs}{stem}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return str(self)


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor."""
    a._check(b)
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


# ---------------------------------------------------------------------------
# factorization (squarefree reduction + deterministic Berlekamp)
# ---------------------------------------------------------------------------

def _powmod(base: Polynomial, e: int, mod: Polynomial) -> Polynomial:
    result = Polynomial.one(base.field)
    base = base % mod
    while e:
        if e & 1:
            result = (result * base) % mod
        base = (base * base) % mod
        e >>= 1
    return result


def _frobenius_fixed_kernel(g: Polynomial) -> np.ndarray:
    """Basis (as rows) of the kernel of Q - I, where row i of the Frobenius
    matrix Q holds x^(i*q) mod g for a monic g.  For squarefree g its
    dimension is the number of distinct irreducible factors (Berlekamp)."""
    field = g.field
    d = int(g.degree)
    xq = _powmod(Polynomial.x(field), field.q, g)
    rows = []
    cur = Polynomial.one(field)
    for i in range(d):
        row = list(cur.coeffs) + [0] * (d - len(cur.coeffs))
        row[i] = field.sub_i(row[i], 1)
        rows.append(row)
        cur = (cur * xq) % g
    return linalg.left_kernel(field, np.array(rows, dtype=np.int64))


def _berlekamp_squarefree(g: Polynomial) -> list[Polynomial]:
    """Irreducible factors of a squarefree monic polynomial (deterministic)."""
    field = g.field
    if g.degree == 1:
        return [g]
    kernel = _frobenius_fixed_kernel(g)
    r = kernel.shape[0]
    if r <= 1:
        return [g]
    factors = [g]
    for vec in kernel:
        if len(factors) == r:
            break
        vpoly = Polynomial.from_values(field, [int(c) for c in vec])
        if vpoly.degree is NEG_INF or vpoly.degree < 1:
            continue
        for cval in range(field.q):
            if len(factors) == r:
                break
            shifted = vpoly - Polynomial.from_values(field, [cval])
            next_factors = []
            for u in factors:
                if u.degree == 1:
                    next_factors.append(u)
                    continue
                w = poly_gcd(u, shifted)
                if w.degree is NEG_INF or w.degree < 1 or w.degree == u.degree:
                    next_factors.append(u)
                else:
                    next_factors.append(w)
                    next_factors.append(u // w)
            factors = next_factors
    assert len(factors) == r, "Berlekamp splitting incomplete"
    return factors


def _pth_root(f: Polynomial) -> Polynomial:
    """For f with zero derivative, the g with g^p = f."""
    field = f.field
    p = field.p
    root_exp = field.q // p  # inverse of Frobenius: c -> c^(q/p)
    vals = []
    for i in range(0, len(f.coeffs), p):
        vals.append(field.pow_i(f.coeffs[i], root_exp))
    return Polynomial.from_values(field, vals)


def factor(f: Polynomial) -> list[tuple[Polynomial, int]]:
    """Monic irreducible factors with multiplicities, canonically sorted.

    The unit (leading coefficient) is discarded.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    result: dict[Polynomial, int] = {}

    def accumulate(g: Polynomial, mult: int) -> None:
        rem = g.monic()
        while rem.degree is not NEG_INF and rem.degree >= 1:
            der = rem.derivative()
            if der.is_zero():
                accumulate(_pth_root(rem), mult * rem.field.p)
                return
            sf = rem // poly_gcd(rem, der)
            if sf.degree >= 1:
                for w in _berlekamp_squarefree(sf):
                    e = 0
                    while w.divides(rem):
                        rem = rem // w
                        e += 1
                    result[w] = result.get(w, 0) + e * mult
            else:  # fully a p-th power
                accumulate(_pth_root(rem), mult * rem.field.p)
                return

    accumulate(f, 1)
    return sorted(result.items(), key=lambda we: (we[0].degree, we[0].coeffs))


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RationalFunction:
    """Quotient of polynomials in lowest terms with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        num._check(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num = num
            self.den = Polynomial.one(num.field)
            return
        g = poly_gcd(num, den)
        if g.degree >= 1:
            num, den = num // g, den // g
        if not den.is_monic():
            inv = den.field.inv_i(den.coeffs[-1])
            num, den = num.scale(inv), den.scale(inv)
        self.num = num
        self.den = den

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> "RationalFunction":
        return cls(p, Polynomial.one(p.field))

    @classmethod
    def x(cls, field: GF) -> "RationalFunction":
        return cls.from_polynomial(Polynomial.x(field))

    @classmethod
    def constant(cls, c: FieldElement) -> "RationalFunction":
        return cls.from_polynomial(Polynomial.constant(c))

    @property
    def field(self) -> GF:
        return self.num.field

    @property
    def degree(self):
        """max(deg num, deg den); -inf for the zero function."""
        if self.num.is_zero():
            return NEG_INF
        return max(self.num.degree, self.den.degree)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __pow__(self, e: int) -> "RationalFunction":
        if e < 0:
            return RationalFunction(self.den ** (-e), self.num ** (-e))
        return RationalFunction(self.num ** e, self.den ** e)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __str__(self) -> str:
        if self.den == Polynomial.one(self.field):
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return str(self)

    def eval_projective(self, t: ProjPoint) -> ProjPoint:
        """Value in the projective line (poles map to inf)."""
        field = self.field
        if self.is_zero():
            return field.zero
        if t is INF:
            dn, dd = self.num.degree, self.den.degree
            if dn > dd:
                return INF
            if dn < dd:
                return field.zero
            return self.num.leading / self.den.leading
        nv = self.num.eval_i(t.val)
        dv = self.den.eval_i(t.val)
        if dv == 0:
            return INF
        return field.from_value(field.div_i(nv, dv))


# ---------------------------------------------------------------------------
# places
# ---------------------------------------------------------------------------

class Place:
    """A place of the rational function field: rational (point of the
    projective line) or a monic irreducible polynomial of degree >= 2."""

    __slots__ = ("field", "point", "poly")

    def __init__(self, field: GF, point: ProjPoint | None, poly: Polynomial | None):
        self.field = field
        self.point = point
        self.poly = poly

    @classmethod
    def at(cls, point: ProjPoint) -> "Place":
        if point is INF:
            raise ValueError("use Place.infinity(field) for the place at infinity")
        return cls(point.field, point, Polynomial.x_minus(point))

    @classmethod
    def infinity(cls, field: GF) -> "Place":
        return cls(field, INF, None)

    @classmethod
    def from_polynomial(cls, poly: Polynomial) -> "Place":
        if poly.degree is NEG_INF or poly.degree < 1:
            raise ValueError("a place needs a polynomial of degree >= 1")
        poly = poly.monic()
        if not poly.is_irreducible():
            raise ValueError(f"defining polynomial {poly} is reducible")
        return cls._from_known_irreducible(poly)

    @classmethod
    def _from_known_irreducible(cls, poly: Polynomial) -> "Place":
        """Constructor trusting the caller (e.g. output of factor())."""
        if poly.degree == 1:
            gamma = poly.field.from_value(poly.field.neg_i(poly.coeffs[0]))
            return cls.at(gamma)
        return cls(poly.field, None, poly)

    @property
    def degree(self) -> int:
        if self.point is not None:
            return 1
        return int(self.poly.degree)

    @property
    def is_rational(self) -> bool:
        return self.point is not None

    @property
    def is_infinite(self) -> bool:
        return self.point is INF

    def sort_key(self):
        if self.point is INF:
            return (1, 0, ())
        if self.point is not None:
            return (0, 0, (self.point.val,))
        return (2, self.degree, self.poly.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Place):
            return NotImplemented
        if self.field != other.field:
            return False
        if (self.point is None) != (other.point is None):
            return False
        if self.point is not None:
            return self.point == other.point
        return self.poly == other.poly

    def __hash__(self) -> int:
        if self.point is INF:
            return hash((self.field.p, self.field.m, "inf"))
        if self.point is not None:
            return hash((self.field.p, self.field.m, self.point.val))
        return hash((self.field.p, self.field.m, self.poly.coeffs))

    def __str__(self) -> str:
        if self.point is INF:
            return "inf"
        if self.point is not None:
            return f"a={self.point}"
        coeffs = ",".join(self.field.format_value(c) for c in self.poly.coeffs)
        return f"poly:{coeffs}"

    def __repr__(self) -> str:
        return str(self)


def place_from_string(field: GF, s: str) -> Place:
    text = s.strip()
    if text == "inf":
        return Place.infinity(field)
    if text.startswith("a="):
        return Place.at(field.parse(text[2:]))
    if text.startswith("poly:"):
        coeffs = [field.parse(c) for c in text[5:].split(",")]
        return Place.from_polynomial(Polynomial(field, coeffs))
    raise ValueError(f"cannot parse place {s!r}")


# ---------------------------------------------------------------------------
# divisors
# ---------------------------------------------------------------------------

class Divisor:
    """Finite formal integer combination of places (no zero coefficients kept)."""

    __slots__ = ("field", "_coeffs")

    def __init__(self, field: GF, coeffs: dict[Place, int] | None = None):
        self.field = field
        clean = {}
        for place, c in (coeffs or {}).items():
            if place.field != field:
                raise ValueError("place from a different field")
            if c != 0:
                clean[place] = c
        self._coeffs = clean

    @classmethod
    def of_place(cls, place: Place, coeff: int = 1) -> "Divisor":
        return cls(place.field, {place: coeff})

    @classmethod
    def zero(cls, field: GF) -> "Divisor":
        return cls(field, {})

    def coefficient(self, place: Place) -> int:
        return self._coeffs.get(place, 0)

    def support(self) -> list[Place]:
        return sorted(self._coeffs, key=Place.sort_key)

    def items(self) -> list[tuple[Place, int]]:
        return [(p, self._coeffs[p]) for p in self.support()]

    @property
    def degree(self) -> int:
        return sum(c * p.degree for p, c in self._coeffs.items())

    def __add__(self, other: "Divisor") -> "Divisor":
        if self.field != other.field:
            raise ValueError("mixed fields in divisor arithmetic")
        out = dict(self._coeffs)
        for p, c in other._coeffs.items():
            out[p] = out.get(p, 0) + c
        return Divisor(self.field, out)

    def __neg__(self) -> "Divisor":
        return Divisor(self.field, {p: -c for p, c in self._coeffs.items()})

    def __sub__(self, other: "Divisor") -> "Divisor":
        return self + (-other)

    def __rmul__(self, k: int) -> "Divisor":
        return Divisor(self.field, {p: k * c for p, c in self._coeffs.items()})

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Divisor)
            and self.field == other.field
            and self._coeffs == other._coeffs
        )

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        return " + ".join(f"{c}*{p}" for p, c in self.items())

    def __repr__(self) -> str:
        return str(self)


def divisor_from_string(field: GF, s: str) -> Divisor:
    """Parse forms like ``2*a=0 + 1*inf`` (terms joined by ' + '; the plus
    signs inside element strings such as ``b+1`` carry no spaces)."""
    text = " ".join(s.split())
    if text == "0":
        return Divisor.zero(field)
    coeffs: dict[Place, int] = {}
    for chunk in text.split(" + "):
        part = chunk.strip()
        if not part:
            raise ValueError(f"cannot parse divisor {s!r}")
        if "*" in part:
            mult_str, _, place_str = part.partition("*")
            mult = int(mult_str)
        else:
            mult, place_str = 1, part
        place = place_from_string(field, place_str)
        coeffs[place] = coeffs.get(place, 0) + mult
    return Divisor(field, coeffs)


# ---------------------------------------------------------------------------
# valuations, evaluation, Riemann-Roch spaces
# ---------------------------------------------------------------------------

def _multiplicity(poly: Polynomial, w: Polynomial) -> int:
    if poly.is_zero():
        raise ValueError("multiplicity in the zero polynomial")
    e = 0
    while True:
        quot, rem = divmod(poly, w)
        if not rem.is_zero():
            return e
        poly = quot
        e += 1


def valuation(f: RationalFunction, place: Place):
    """v_P(f); +inf for the zero function."""
    if f.is_zero():
        return float("inf")
    if place.is_infinite:
        return int(f.den.degree) - int(f.num.degree)
    w = place.poly
    return _multiplicity(f.num, w) - _multiplicity(f.den, w)


def evaluate_at_place(f: RationalFunction, place: Place) -> FieldElement:
    """Residue of f at a rational place; f must be regular there."""
    if not place.is_rational:
        raise ValueError("evaluation is only defined at rational places")
    field = f.field
    if place.is_infinite:
        if f.is_zero():
            return field.zero
        dn, dd = f.num.degree, f.den.degree
        if dn > dd:
            raise ValueError("pole at the place at infinity")
        if dn < dd:
            return field.zero
        return f.num.leading / f.den.leading
    gamma = place.point
    dv = f.den.eval_i(gamma.val)
    if dv == 0:
        raise ValueError(f"pole at {place}")
    return field.from_value(field.div_i(f.num.eval_i(gamma.val), dv))


def in_riemann_roch_space(f: RationalFunction, G: Divisor) -> bool:
    """Whether (f) >= -G.

    f is in lowest terms, so its finite poles are exactly the places that
    divide its denominator.  The test checks v_P(f) >= -G(P) at infinity and
    at each finite support place of G, and that the pole orders found at
    those places account for the whole degree of the denominator (no pole
    outside the support); no factorization is needed.
    """
    if f.is_zero():
        return True
    inf_place = Place.infinity(f.field)
    if valuation(f, inf_place) < -G.coefficient(inf_place):
        return False
    pole_degree = 0
    for place, c in G.items():
        if place.is_infinite:
            continue
        v = valuation(f, place)
        if v < -c:
            return False
        pole_degree += max(-v, 0) * place.degree
    return pole_degree == f.den.degree


def rr_basis(G: Divisor) -> list[RationalFunction]:
    """Ordered basis of the Riemann-Roch space L(G) of the rational function
    field (genus 0): deg G + 1 functions h * x^t / N for t = 0..deg G, where
    N collects the positive finite part of G and h the negative finite part.
    Every member is verified with in_riemann_roch_space.

    Empty for deg G < 0.
    """
    field = G.field
    d = G.degree
    if d < 0:
        return []
    numerator_forced = Polynomial.one(field)
    denominator = Polynomial.one(field)
    for place, c in G.items():
        if place.is_infinite:
            continue
        if c > 0:
            denominator = denominator * place.poly ** c
        else:
            numerator_forced = numerator_forced * place.poly ** (-c)
    basis = []
    xpow = Polynomial.one(field)
    for _t in range(d + 1):
        f = RationalFunction(numerator_forced * xpow, denominator)
        if not in_riemann_roch_space(f, G):
            raise AssertionError(f"constructed basis member {f} escapes L(G)")
        basis.append(f)
        xpow = xpow * Polynomial.x(field)
    return basis


def evaluate_rr_basis(G: Divisor, D: Sequence[Place]) -> list[list[int]]:
    """The values of rr_basis(G) = (h x^t / N) at rational places D off the
    support of G, as int rows, without building the functions.  At a finite
    P, row t is (h/N)(P) * P^t, with (h/N)(P) the product of w(P)^(-c) over
    the finite places (w, c) of G.  At infinity G(inf) = 0, so deg h + deg G
    = deg N: only row deg G is nonzero there, and it is lead(h)/lead(N)."""
    field = G.field
    d = G.degree
    if d < 0:
        return []
    mul, pow_ = field.mul_i, field.pow_i
    finite = [(place.poly, c) for place, c in G.items() if not place.is_infinite]
    columns = []
    for place in D:
        value = 1
        for w, c in finite:
            at = w.coeffs[-1] if place.is_infinite else w.eval_i(place.point.val)
            value = mul(value, pow_(at, -c))
        if place.is_infinite:
            columns.append([0] * d + [value])
        else:
            columns.append(list(accumulate(repeat(place.point.val, d), mul, initial=value)))
    return [list(row) for row in zip(*columns)]


def pole_power_basis(beta: FieldElement, r: int) -> list[RationalFunction]:
    """The basis (1, 1/(x-beta), ..., 1/(x-beta)^r) of L(r*P_beta)."""
    if r < 1:
        raise ValueError("pole order must be >= 1")
    field = beta.field
    lin = Polynomial.x_minus(beta)
    one = Polynomial.one(field)
    return [RationalFunction(one, lin ** j) for j in range(r + 1)]


# ---------------------------------------------------------------------------
# Mobius substitution and the induced action on places
# ---------------------------------------------------------------------------

def _linear_combination_powers(
    field: GF, coeffs: Sequence[int], top: Polynomial, bottom: Polynomial, total: int
) -> Polynomial:
    """sum_k c_k * top^k * bottom^(total-k)."""
    out = Polynomial.zero(field)
    top_pows = [Polynomial.one(field)]
    bot_pows = [Polynomial.one(field)]
    for _ in range(total):
        top_pows.append(top_pows[-1] * top)
        bot_pows.append(bot_pows[-1] * bottom)
    for k, c in enumerate(coeffs):
        if c:
            out = out + (top_pows[k] * bot_pows[total - k]).scale(c)
    return out


def mobius_formula(mobius) -> tuple[Polynomial, Polynomial]:
    """The numerator a x + b and the denominator c x + d of the map's formula."""
    a, b, c, d = mobius.entries
    return Polynomial.from_values(mobius.field, [b, a]), Polynomial.from_values(mobius.field, [d, c])


def mobius_substitute(f: RationalFunction, mobius) -> RationalFunction:
    """Substitute x -> (a x + b)/(c x + d) into f and reduce.

    This realizes the field automorphism attached to the matrix.
    """
    field = f.field
    if f.is_zero():
        return f
    if mobius.field != field:
        raise ValueError("coefficient from a different field")
    top, bottom = mobius_formula(mobius)
    total = int(max(f.num.degree, f.den.degree))
    new_num = _linear_combination_powers(field, f.num.coeffs, top, bottom, total)
    new_den = _linear_combination_powers(field, f.den.coeffs, top, bottom, total)
    return RationalFunction(new_num, new_den)


def place_image(mobius, place: Place) -> Place:
    """Image of a place under the automorphism attached to the matrix.

    Rational places move by the inverse fractional action on points; an
    irreducible defining polynomial moves by substituting the map's formula
    and clearing denominators (its roots move by the inverse action in the
    algebraic closure), which preserves the degree and irreducibility, so
    the image is not tested again.
    """
    if place.is_rational:
        return place_of_point(place.field, mobius.apply_inverse(
            INF if place.is_infinite else place.point
        ))
    field = place.field
    q = place.poly
    d = int(q.degree)
    top, bottom = mobius_formula(mobius)
    moved = _linear_combination_powers(field, q.coeffs, top, bottom, d)
    if moved.degree != d:
        raise AssertionError("degree dropped while moving an irreducible place")
    return Place._from_known_irreducible(moved.monic())


def place_of_point(field: GF, t: ProjPoint) -> Place:
    """The rational place attached to a projective point."""
    return Place.infinity(field) if t is INF else Place.at(t)
