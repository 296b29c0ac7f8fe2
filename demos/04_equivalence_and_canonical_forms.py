"""Transports, closed standard forms, and the uniqueness theorem.

Three exact reductions move any orbit code with a rational pole point to a
canonical representative:

  1. a finite nonzero pole point translates to 0 (same code, conjugated map);
  2. pole point 0 swaps with infinity (same code, orbit inverts elementwise);
  3. with the pole at infinity the matrix is triangular [[1,-b],[0,a]], the
     code does not depend on b or on the seed, and scalings with the same
     subgroup <a> differ by a column permutation.

Consequence: per (length, dimension) there is exactly one code up to
monomial equivalence, represented by the canonical scaling (or by
[[1,1],[0,1]] when the length is the characteristic).
"""

import numpy as np

from agcyclic import (
    GF,
    INF,
    MobiusMap,
    OrbitCodeSpec,
    canonicalize,
    closed_standard_form,
    construct_orbit_code,
    monomial_equivalence,
    transport_pole_to_zero,
    transport_zero_to_infinity,
)

F5 = GF(5)

# --- step 1 and 2: transports preserve the code exactly ----------------------
matrix = MobiusMap(F5.one, -F5.element(3), F5.zero, F5.element(2))  # fixes 2, inf
spec = OrbitCodeSpec(matrix, F5.zero, F5.element(2), 1)
print("start: pole at", spec.beta, "orbit", [str(t) for t in spec.orbit])
step1 = transport_pole_to_zero(spec)
print("after translation: pole at", step1.beta, "orbit", [str(t) for t in step1.orbit])
step2 = transport_zero_to_infinity(step1)
print("after swap: pole at", step2.beta, "orbit", [str(t) for t in step2.orbit])
c0, c1, c2 = (construct_orbit_code(s) for s in (spec, step1, step2))
print("codes equal along the chain:", c0.equals(c1) and c1.equals(c2))
print()

# --- step 3: b-independence via the closed standard form ---------------------
# For [[1,-b],[0,a]] the standard form (I_k | W) of the code comes out of a
# closed formula in a alone; sweeping b leaves W untouched.
print("closed standard form W for a=2 over GF(5), r=1, every b:")
for b_val in range(5):
    tri = MobiusMap(F5.one, -F5.from_value(b_val), F5.zero, F5.element(2))
    seed = next(
        F5.from_value(v) for v in range(5)
        if not (F5.from_value(b_val) + F5.one * F5.from_value(v)).is_zero()
    )
    W = closed_standard_form(tri, seed, 1)
    print(f"    b={b_val}:", W.tolist())
print()

# --- the canonical representative --------------------------------------------
spec3 = OrbitCodeSpec(MobiusMap.scaling(F5.element(3)), F5.one, INF, 1)
result = canonicalize(spec3)
print("canonicalize the order-4 scaling by 3:")
print("    canonical matrix:", result.spec.matrix, "seed", result.spec.alpha,
      "pole", result.spec.beta)
print("    relation:", result.relation)
print("    column-permutation witness:")
print(np.array2string(result.witness, prefix="    "))
moved = construct_orbit_code(spec3).apply_monomial(result.witness)
print("    witness verifies:", moved.equals(construct_orbit_code(result.spec)))
print()

# An independent equivalence decision reaches the same verdict.
verdict = monomial_equivalence(
    construct_orbit_code(spec3), construct_orbit_code(result.spec)
)
print("independent monomial-equivalence search:", verdict.status)

# Every valid spec of the same (n, r) lands on the same canonical code.
canonicals = set()
for a_val in (2, 3):
    for seed_val in (1, 2, 3, 4):
        s = OrbitCodeSpec(MobiusMap.scaling(F5.element(a_val)), F5.element(seed_val), INF, 1)
        canonicals.add(construct_orbit_code(canonicalize(s).spec))
print("distinct canonical codes across 8 specs of shape (n=4, r=1):", len(canonicals))
