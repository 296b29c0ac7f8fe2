"""Elements of PGL2(F_q) and their action on the projective line.

A matrix [[a, b], [c, d]] with ad - bc != 0 is stored as its four entry
values (ints in [0, q)) in normalized form: the first nonzero entry in
row-major order is scaled to 1, so equality is componentwise.  The attached
field automorphism sends x to (ax+b)/(cx+d) and moves points of the
projective line by the INVERSE fractional action: the place at a point t
moves to the place at A^{-1}.t.  Orbits are walked with A^{-1}, so iterating
the image map n times returns to the start.

Normalization, products, inverses, orders, orbits and fixed points all run
on int values, q standing for infinity.  FieldElement appears only at the
boundary: the element constructor MobiusMap(a, b, c, d), the read-only entry
views .a, .b, .c, .d, and the points that the action takes and returns.
"""

from __future__ import annotations

from .gf import GF, FieldElement
from .rfield import INF, ProjPoint, is_infinite, parse_point


def _entry_view(i: int) -> property:
    return property(lambda self: FieldElement(self.field, self.entries[i]))


class MobiusMap:
    """An element of PGL2(F_q); immutable, canonical representation."""

    __slots__ = ("field", "entries")

    def __init__(self, a: FieldElement, b: FieldElement, c: FieldElement, d: FieldElement):
        field = a.field
        for e in (b, c, d):
            if e.field != field:
                raise ValueError("matrix entries from mixed fields")
        self._normalize(field, a.val, b.val, c.val, d.val)

    @classmethod
    def from_values(cls, field: GF, a: int, b: int, c: int, d: int) -> "MobiusMap":
        """The map [[a, b], [c, d]] from entry values in [0, q)."""
        self = cls.__new__(cls)
        self._normalize(field, a, b, c, d)
        return self

    def _normalize(self, field: GF, a: int, b: int, c: int, d: int) -> None:
        mul = field.mul_i
        if field.sub_i(mul(a, d), mul(b, c)) == 0:
            raise ValueError("degenerate matrix: ad - bc = 0")
        lead = a or b  # the first row of an invertible matrix is nonzero
        if lead != 1:
            inv = field.inv_i(lead)
            a, b, c, d = mul(a, inv), mul(b, inv), mul(c, inv), mul(d, inv)
        self.field = field
        self.entries = (a, b, c, d)

    a, b, c, d = map(_entry_view, range(4))

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
        return cls.from_values(field, 1, 0, 0, 1)

    @classmethod
    def scaling(cls, a: FieldElement) -> "MobiusMap":
        """diag(1, a): the map whose orbits multiply by a."""
        return cls.from_values(a.field, 1, 0, 0, a.val)

    @classmethod
    def translation(cls, beta: FieldElement) -> "MobiusMap":
        """[[1, beta], [0, 1]], the automorphism x -> x + beta."""
        return cls.from_values(beta.field, 1, beta.val, 0, 1)

    # -- group structure -------------------------------------------------------

    def __mul__(self, other: "MobiusMap") -> "MobiusMap":
        f = self.field
        if f != other.field:
            raise ValueError("mixed fields in matrix product")
        mul, add = f.mul_i, f.add_i
        a, b, c, d = self.entries
        e, g, h, k = other.entries
        return MobiusMap.from_values(
            f,
            add(mul(a, e), mul(b, h)),
            add(mul(a, g), mul(b, k)),
            add(mul(c, e), mul(d, h)),
            add(mul(c, g), mul(d, k)),
        )

    def inverse(self) -> "MobiusMap":
        f = self.field
        a, b, c, d = self.entries
        return MobiusMap.from_values(f, d, f.neg_i(b), f.neg_i(c), a)

    def is_identity(self) -> bool:
        a, b, c, d = self.entries
        return not b and not c and a == d

    def order(self) -> int:
        """Order in PGL2(F_q), by iterated multiplication of int entries: an
        unnormalized power is the identity when b = c = 0 and a = d."""
        f = self.field
        mul, add = f.mul_i, f.add_i
        pa, pb, pc, pd = a, b, c, d = self.entries
        n = 1
        while pb or pc or pa != pd:
            pa, pb, pc, pd = (add(mul(pa, a), mul(pb, c)), add(mul(pa, b), mul(pb, d)),
                              add(mul(pc, a), mul(pd, c)), add(mul(pc, b), mul(pd, d)))
            n += 1
            if n > 2 * (f.q + 1):
                raise AssertionError("order loop failed to terminate")
        return n

    # -- action on the projective line ------------------------------------------

    def _value(self, t: ProjPoint) -> int:
        if t is not INF and t.field != self.field:
            raise ValueError("point from a different field")
        return self.field.q if t is INF else t.val

    def _point(self, v: int) -> ProjPoint:
        return INF if v == self.field.q else FieldElement(self.field, v)

    def _inverse_i(self, t: int) -> int:
        """A^{-1}.t on values, q standing for infinity."""
        f = self.field
        a, b, c, d = self.entries
        if t == f.q:
            return f.q if c == 0 else f.div_i(f.neg_i(d), c)
        denom = f.sub_i(a, f.mul_i(c, t))
        return f.q if denom == 0 else f.div_i(f.sub_i(f.mul_i(d, t), b), denom)

    def apply_inverse(self, t: ProjPoint) -> ProjPoint:
        """A^{-1}.t: (dt - b)/(-ct + a) for finite t unless a = ct, with
        A^{-1}.inf = -d/c when c != 0; fixed-point-free cases map to inf."""
        return self._point(self._inverse_i(self._value(t)))

    def fixed_points(self) -> set[ProjPoint]:
        """All t in the projective line with A^{-1}.t = t."""
        act = self._inverse_i
        return {self._point(v) for v in range(self.field.q + 1) if act(v) == v}

    def orbit(self, alpha: ProjPoint) -> tuple[ProjPoint, ...]:
        """(alpha, A^{-1}.alpha, A^{-2}.alpha, ...), stopping before the
        first repetition; errors when alpha is a fixed point."""
        if self.is_identity():
            raise ValueError("orbits of the identity are trivial")
        act = self._inverse_i
        start = self._value(alpha)
        cur = act(start)
        if cur == start:
            raise ValueError(f"{alpha} is a fixed point; its orbit is trivial")
        out = [start]
        while cur != start:
            out.append(cur)
            if len(out) > self.field.q + 1:
                raise AssertionError("orbit exceeded the projective line")
            cur = act(cur)
        return tuple(map(self._point, out))

    def isotropy_order(self, alpha: ProjPoint) -> int:
        """Order of the stabilizer of alpha inside the cyclic group generated
        by this map; equals order/|orbit|."""
        m = self.order()
        if self.apply_inverse(alpha) == alpha:
            return m
        return m // len(self.orbit(alpha))

    # -- identity ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MobiusMap)
            and self.entries == other.entries
            and self.field == other.field
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.field.m, *self.entries))

    def __str__(self) -> str:
        return f"{self.a},{self.b};{self.c},{self.d}"

    def __repr__(self) -> str:
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


# ---------------------------------------------------------------------------
# triangular maps: closed-form order and orbit differences
# ---------------------------------------------------------------------------

def triangular_params(mobius: MobiusMap) -> tuple[FieldElement, FieldElement]:
    """For a normalized triangular map [[1, -b], [0, a]], the pair (a, b).

    The orbit map of such a matrix is t -> a*t + b.
    """
    if mobius.entries[2]:
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
    q, mul = field.q, field.mul_i
    for b in range(q):
        for c in range(q):
            bc = mul(b, c)
            for d in range(q):
                if d != bc:  # det of [[1, b], [c, d]]
                    yield MobiusMap.from_values(field, 1, b, c, d)
    for c in range(1, q):
        for d in range(q):
            yield MobiusMap.from_values(field, 0, 1, c, d)


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
