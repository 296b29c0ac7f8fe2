"""Invariant generators and fiber splitting for cyclic groups of Mobius maps.

A matrix A of order m generates a cyclic group of automorphisms of the
rational function field; its fixed field is again rational, generated by a
single invariant function z of degree m.  The candidates tried are the
trace, the norm, and the second power sum of the images of x; translations
kill the trace in odd characteristic and the inversion kills the norm, so
the chain is ordered and failure is reported loudly rather than patched.
Each candidate is built only when the ones before it fall short of degree m.

Fibers of z realize the splitting data: over a value t, each irreducible
factor of the fiber polynomial contributes a place whose degree is the
inertia degree and whose multiplicity is the ramification index, and the
degrees weighted by multiplicities always sum to m.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce

from .pgl2 import MobiusMap, ProjPoint, is_infinite
from .rfield import (
    Place,
    RationalFunction,
    factor,
    mobius_formula,
    mobius_substitute,
)


@dataclass(eq=False)
class InvariantGenerator:
    z: RationalFunction
    m: int
    method: str  # trace | norm | power-sum-2


def invariant_generator(matrix: MobiusMap) -> InvariantGenerator:
    """First of trace / norm / second power sum of the x-images with degree
    equal to the group order; always verified invariant under substitution."""
    m = matrix.order()
    if m < 2:
        raise ValueError("need a matrix of order m >= 2")
    field = matrix.field
    images = []
    power = MobiusMap.identity(field)
    for _ in range(m):
        images.append(RationalFunction(*mobius_formula(power)))
        power = power * matrix
    candidates = (
        ("trace", lambda: reduce(operator.add, images)),
        ("norm", lambda: reduce(operator.mul, images)),
        ("power-sum-2", lambda: reduce(operator.add, (f * f for f in images))),
    )
    for method, build in candidates:
        z = build()
        if z.degree == m:
            if not z.num.is_monic():  # constant multiples stay invariant
                z = RationalFunction(z.num.monic(), z.den)
            if mobius_substitute(z, matrix) != z:
                raise AssertionError(f"{method} candidate is not invariant")
            return InvariantGenerator(z, m, method)
    raise ValueError(
        "no invariant generator of full degree among trace, norm and the "
        "second power sum"
    )


def fiber_decomposition(
    gen: InvariantGenerator, t: ProjPoint
) -> list[tuple[Place, int]]:
    """Places over the value t with their multiplicities: irreducible factors
    of the fiber polynomial, plus the place at infinity when the fiber
    polynomial falls short of degree m.  Multiplicities weighted by place
    degrees always sum to m."""
    z, m = gen.z, gen.m
    field = z.field
    if is_infinite(t):
        fiber_poly = z.den
    else:
        fiber_poly = z.num - z.den.scale(t.val)
    out = []
    total = 0
    for w, e in factor(fiber_poly):
        out.append((Place._from_known_irreducible(w), e))
        total += e * int(w.degree)
    poly_degree = 0 if fiber_poly.is_zero() else int(fiber_poly.degree)
    if poly_degree < m:
        out.append((Place.infinity(field), m - poly_degree))
        total += m - poly_degree
    if total != m:
        raise AssertionError(f"fiber degrees sum to {total}, expected {m}")
    return out


@dataclass(eq=False)
class SplittingReport:
    generator: InvariantGenerator
    orbit: tuple[ProjPoint, ...]
    value: ProjPoint  # the common value of z on the orbit
    fiber: list[tuple[Place, int]]
    constant_on_orbit: bool
    fiber_matches_orbit: bool
    ramification_uniform: bool  # every orbit place has e*f = m/n

    @property
    def all_ok(self) -> bool:
        return (
            self.constant_on_orbit
            and self.fiber_matches_orbit
            and self.ramification_uniform
        )


def splitting_report(matrix: MobiusMap, alpha: ProjPoint) -> SplittingReport:
    """Check that the invariant generator is constant on the orbit of alpha
    and that its fiber over that value consists exactly of the orbit places,
    each with multiplicity times degree equal to m/n."""
    gen = invariant_generator(matrix)
    orbit = matrix.orbit(alpha)
    n = len(orbit)
    values = [gen.z.eval_projective(point) for point in orbit]
    first = values[0]
    constant = all(v == first for v in values)
    fiber = fiber_decomposition(gen, first)
    field = matrix.field
    orbit_places = {
        Place.infinity(field) if is_infinite(t) else Place.at(t) for t in orbit
    }
    rational_fiber = {place for place, _e in fiber if place.is_rational}
    matches = rational_fiber == orbit_places
    target = gen.m // n
    uniform = gen.m % n == 0 and all(
        e * place.degree == target for place, e in fiber if place in orbit_places
    )
    return SplittingReport(
        generator=gen,
        orbit=orbit,
        value=first,
        fiber=fiber,
        constant_on_orbit=constant,
        fiber_matches_orbit=matches,
        ramification_uniform=uniform,
    )
