"""Elements of PGL2(F_q) and their action on the projective line.

A matrix [[a, b], [c, d]] with ad - bc != 0 is stored in normalized form
(first nonzero entry in row-major order scaled to 1), so equality is
componentwise.  The attached field automorphism sends x to (ax+b)/(cx+d)
and moves points of the projective line by the INVERSE fractional action:
the place at a point t moves to the place at A^{-1}.t.  Orbits are walked
with A^{-1}, so iterating the image map n times returns to the start.
"""

from __future__ import annotations

from .gf import GF, FieldElement
from .rfield import INF, ProjPoint, is_infinite, parse_point


class MobiusMap:
    """An element of PGL2(F_q); immutable, canonical representation."""

    __slots__ = ("field", "a", "b", "c", "d")

    def __init__(self, a: FieldElement, b: FieldElement, c: FieldElement, d: FieldElement):
        field = a.field
        for e in (b, c, d):
            if e.field != field:
                raise ValueError("matrix entries from mixed fields")
        det = a * d - b * c
        if det.is_zero():
            raise ValueError("degenerate matrix: ad - bc = 0")
        for e in (a, b, c, d):
            if not e.is_zero():
                inv = e.inverse()
                a, b, c, d = a * inv, b * inv, c * inv, d * inv
                break
        self.field = field
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def from_entries(cls, field: GF, a, b, c, d) -> "MobiusMap":
        return cls(field.element(a), field.element(b), field.element(c), field.element(d))

    @classmethod
    def from_string(cls, field: GF, s: str) -> "MobiusMap":
        rows = s.strip().split(";")
        if len(rows) != 2:
            raise ValueError(f"matrix string needs two rows, got {s!r}")
        entries = []
        for row in rows:
            parts = row.split(",")
            if len(parts) != 2:
                raise ValueError(f"matrix row needs two entries, got {row!r}")
            entries.extend(field.parse(p) for p in parts)
        return cls(*entries)

    @classmethod
    def identity(cls, field: GF) -> "MobiusMap":
        return cls(field.one, field.zero, field.zero, field.one)

    @classmethod
    def scaling(cls, a: FieldElement) -> "MobiusMap":
        """diag(1, a): the map whose orbits multiply by a."""
        f = a.field
        return cls(f.one, f.zero, f.zero, a)

    @classmethod
    def translation_type(cls, field: GF) -> "MobiusMap":
        """[[1, 1], [0, 1]]: the order-p map fixing only infinity."""
        return cls(field.one, field.one, field.zero, field.one)

    @classmethod
    def translation(cls, beta: FieldElement) -> "MobiusMap":
        """[[1, beta], [0, 1]], the automorphism x -> x + beta."""
        f = beta.field
        return cls(f.one, beta, f.zero, f.one)

    # -- group structure -------------------------------------------------------

    def __mul__(self, other: "MobiusMap") -> "MobiusMap":
        if self.field != other.field:
            raise ValueError("mixed fields in matrix product")
        return MobiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MobiusMap":
        return MobiusMap(self.d, -self.b, -self.c, self.a)

    def __pow__(self, e: int) -> "MobiusMap":
        if e < 0:
            return self.inverse() ** (-e)
        result = MobiusMap.identity(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def is_identity(self) -> bool:
        return (
            self.b.is_zero()
            and self.c.is_zero()
            and self.a == self.d
        )

    def order(self) -> int:
        """Order in PGL2(F_q), by iterated multiplication."""
        if self.is_identity():
            return 1
        acc = self
        n = 1
        bound = 2 * (self.field.q + 1)
        while not acc.is_identity():
            acc = acc * self
            n += 1
            if n > bound:
                raise AssertionError("order loop failed to terminate")
        return n

    def is_triangular(self) -> bool:
        return self.c.is_zero()

    # -- action on the projective line ------------------------------------------

    def apply_inverse(self, t: ProjPoint) -> ProjPoint:
        """A^{-1}.t: (dt - b)/(-ct + a) for finite t unless a = ct, with
        A^{-1}.inf = -d/c when c != 0; fixed-point-free cases map to inf."""
        a, b, c, d = self.a, self.b, self.c, self.d
        if is_infinite(t):
            if c.is_zero():
                return INF
            return -d / c
        denom = a - c * t
        if denom.is_zero():
            return INF
        return (d * t - b) / denom

    def apply(self, t: ProjPoint) -> ProjPoint:
        """Forward fractional action (a t + b)/(c t + d)."""
        a, b, c, d = self.a, self.b, self.c, self.d
        if is_infinite(t):
            if c.is_zero():
                return INF
            return a / c
        denom = c * t + d
        if denom.is_zero():
            return INF
        return (a * t + b) / denom

    def fixed_points(self) -> set[ProjPoint]:
        """All t in the projective line with A^{-1}.t = t."""
        out = set()
        for v in range(self.field.q):
            t = self.field.from_value(v)
            img = self.apply_inverse(t)
            if not is_infinite(img) and img == t:
                out.add(t)
        if is_infinite(self.apply_inverse(INF)):
            out.add(INF)
        return out

    def orbit(self, alpha: ProjPoint) -> tuple[ProjPoint, ...]:
        """(alpha, A^{-1}.alpha, A^{-2}.alpha, ...), stopping before the
        first repetition; errors when alpha is a fixed point."""
        if self.is_identity():
            raise ValueError("orbits of the identity are trivial")
        first = self.apply_inverse(alpha)
        if _points_equal(first, alpha):
            raise ValueError(f"{alpha} is a fixed point; its orbit is trivial")
        out = [alpha, first]
        cur = first
        while True:
            cur = self.apply_inverse(cur)
            if _points_equal(cur, alpha):
                break
            out.append(cur)
            if len(out) > self.field.q + 1:
                raise AssertionError("orbit exceeded the projective line")
        return tuple(out)

    def isotropy_order(self, alpha: ProjPoint) -> int:
        """Order of the stabilizer of alpha inside the cyclic group generated
        by this map; equals order/|orbit|."""
        m = self.order()
        first = self.apply_inverse(alpha)
        if _points_equal(first, alpha):
            return m
        return m // len(self.orbit(alpha))

    # -- identity ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MobiusMap)
            and self.field == other.field
            and self.a == other.a
            and self.b == other.b
            and self.c == other.c
            and self.d == other.d
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.field.m, self.a.val, self.b.val, self.c.val, self.d.val))

    def __str__(self) -> str:
        return f"{self.a},{self.b};{self.c},{self.d}"

    def __repr__(self) -> str:
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


def _points_equal(s: ProjPoint, t: ProjPoint) -> bool:
    if is_infinite(s) or is_infinite(t):
        return s is t
    return s == t


# ---------------------------------------------------------------------------
# triangular maps: closed-form order and orbit differences
# ---------------------------------------------------------------------------

def triangular_params(mobius: MobiusMap) -> tuple[FieldElement, FieldElement]:
    """For a normalized triangular map [[1, -b], [0, a]], the pair (a, b).

    The orbit map of such a matrix is t -> a*t + b.
    """
    if not mobius.c.is_zero():
        raise ValueError("matrix is not triangular (c != 0)")
    return mobius.d, -mobius.b


def order_triangular(mobius: MobiusMap) -> int:
    """Closed-form order of a non-identity triangular map: the characteristic
    p when a = 1, else the multiplicative order of a."""
    if mobius.is_identity():
        raise ValueError("the identity has no triangular order formula")
    a, _b = triangular_params(mobius)
    if a == mobius.field.one:
        return mobius.field.p
    return a.order()


def geometric_sum(a: FieldElement, terms: int) -> FieldElement:
    """1 + a + ... + a^(terms-1) as an explicit sum (uniform in a = 1)."""
    f = a.field
    acc = f.zero
    cur = f.one
    for _ in range(terms):
        acc = acc + cur
        cur = cur * a
    return acc


def orbit_difference(
    mobius: MobiusMap, alpha: FieldElement, i: int, j: int
) -> FieldElement:
    """Closed form for orbit entry differences of a triangular map:

        alpha_j - alpha_i = (b + (a-1)*alpha) * a^(i-1) * (1 + a + ... + a^(j-i-1))

    for 1 <= i < j <= n (n the orbit length).  The middle factor is a power
    of a, which the direct-subtraction oracle confirms.
    """
    a, b = triangular_params(mobius)
    if not 1 <= i < j:
        raise ValueError(f"need 1 <= i < j, got i={i}, j={j}")
    n = mobius.order()
    if j > n:
        raise ValueError(f"index j={j} exceeds the orbit length {n}")
    prefactor = b + (a - mobius.field.one) * alpha
    if prefactor.is_zero():
        raise ValueError(f"{alpha} is a fixed point of the triangular map")
    return prefactor * a ** (i - 1) * geometric_sum(a, j - i)


def all_pgl2(field: GF):
    """All elements of PGL2(F_q) in canonical normalized order."""
    one, zero = field.one, field.zero
    for bv in range(field.q):
        for cv in range(field.q):
            for dv in range(field.q):
                b, c, d = field.from_value(bv), field.from_value(cv), field.from_value(dv)
                if d != b * c:  # det of [[1, b], [c, d]]
                    yield MobiusMap(one, b, c, d)
    for cv in range(1, field.q):
        for dv in range(field.q):
            yield MobiusMap(zero, one, field.from_value(cv), field.from_value(dv))


__all__ = [
    "MobiusMap",
    "all_pgl2",
    "INF",
    "ProjPoint",
    "is_infinite",
    "parse_point",
    "triangular_params",
    "order_triangular",
    "geometric_sum",
    "orbit_difference",
]
