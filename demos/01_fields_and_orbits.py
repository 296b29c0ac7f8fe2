"""Finite fields and Mobius orbits on the projective line.

Everything downstream is built from two ingredients: exact arithmetic in
GF(q), and the action of PGL2(F_q) on the projective line P1(F_q) = F_q
together with the point at infinity.  This script walks through both.
"""

from agcyclic import (
    GF,
    INF,
    MobiusMap,
    find_element_of_order,
    frobenius_orbit,
    primitive_element,
)

# --- fields -----------------------------------------------------------------
# Fields are constructed from (p, m) with a canonical modulus: the monic
# irreducible of degree m whose coefficient tuple is lexicographically
# smallest.  GF(4) gets x^2 + x + 1, so the generator b satisfies
# b^2 + b + 1 = 0.

F4 = GF(2, 2)
b = F4.generator
print("GF(4) modulus coefficients (ascending):", F4.modulus)
print("b^2 + b + 1 =", b * b + b + F4.one)
print("elements of GF(4):", ", ".join(str(e) for e in F4.elements()))
print()

F9 = GF(3, 2)
print("GF(9) modulus:", F9.modulus, "(x^2 + 1)")
print("primitive element of GF(9):", primitive_element(F9))
print("multiplicative orders:", {str(e): e.order() for e in F9.units()})
print()

# Frobenius orbits group elements into conjugacy classes over the prime field.
alpha = primitive_element(GF(2, 3))
print("Frobenius orbit of a primitive element of GF(8):",
      ", ".join(str(e) for e in frobenius_orbit(alpha)))
print()

# --- Mobius maps -------------------------------------------------------------
# A matrix [[a, b], [c, d]] acts on points through its inverse, so that
# iterating the point map n times walks an orbit of length n.

F5 = GF(5)
scale = MobiusMap.scaling(F5.element(2))  # diag(1, 2): orbits multiply by 2
print("scaling matrix:", scale, "order:", scale.order())
print("fixed points:", sorted(str(t) for t in scale.fixed_points()))
print("orbit of 1:", ", ".join(str(t) for t in scale.orbit(F5.one)))
print()

# An order-(q+1) class has no rational fixed points and sweeps long orbits.
wild = MobiusMap.from_string(F4, "1,1;b,0")
print("matrix", wild, "over GF(4) has order", wild.order())
print("its orbit through 1 visits every rational point:",
      ", ".join(str(t) for t in wild.orbit(F4.one)))
print()

# find_element_of_order picks the canonically smallest element of a given
# multiplicative order; it anchors every canonical representative later.
print("canonical element of order 6 in GF(7):", find_element_of_order(GF(7), 6))
print("canonical element of order 4 in GF(5):", find_element_of_order(GF(5), 4))
