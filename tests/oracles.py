"""Slow, independent reference implementations for differential tests.

Each oracle decides the same question as a library routine by a more
direct method, exponential or factorization-based, so it is usable only at
test scale.
"""

from itertools import product

from agcyclic import Place, Polynomial, factor, valuation
from agcyclic.rfield import NEG_INF


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
