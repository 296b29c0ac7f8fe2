"""The four benchmark workloads: seeded inputs, the timed library calls, and
the exact checks of their outputs.

Each workload hands out its inputs in cycles.  A cycle is a fixed list of
cells (field, length, rate, pole type, ...) that sets how much work an op
does; the seed chooses the concrete matrices, points, codes and
permutations inside each cell.  Every seed therefore sees the same mix of
op sizes, and a run always measures whole cycles.

Inputs reach the library only as plain integers (matrix entries, points,
generator rows) or as argv lists.  ``run`` performs the timed calls and
returns the raw results; ``check`` compares them with values the generator
derived independently (see oracle.py) and returns a list of problems, empty
when the op is correct.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
from itertools import product

import oracle


# fields each workload builds in set-up, as (p, m)
FIELDS = {
    "sweep": [(7, 1), (2, 3), (3, 2), (11, 1), (2, 4), (5, 2), (3, 3)],
    "enumerate": [(3, 2), (13, 1), (2, 4), (5, 2), (3, 3), (3, 4), (2, 8)],
    "equiv": [(7, 1), (2, 3), (3, 2), (11, 1), (13, 1)],
    "cli": [(7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (5, 2), (3, 3), (2, 16), (3, 10)],
}


# oracle fields are immutable and slow to set up for q > 4096: share them
ofield = functools.cache(oracle.Field)


def field_spec(F: oracle.Field) -> str:
    return str(F.p) if F.m == 1 else f"{F.p}^{F.m}"


def vdc(j: int) -> float:
    """Van der Corput sequence in base 2: evenly spread fractions for any
    number of cycles."""
    out, denom = 0.0, 1.0
    j += 1
    while j:
        denom *= 2
        out += (j & 1) / denom
        j >>= 1
    return out


class Library:
    """The library modules, looked up at call time so that trace wrappers
    installed on them take effect."""

    def __init__(self):
        import agcyclic.cli
        import agcyclic.construction
        import agcyclic.fixedfield
        import agcyclic.gf
        import agcyclic.lincode
        import agcyclic.pgl2

        self.gf = agcyclic.gf
        self.pgl2 = agcyclic.pgl2
        self.lincode = agcyclic.lincode
        self.construction = agcyclic.construction
        self.fixedfield = agcyclic.fixedfield
        self.cli = agcyclic.cli
        self.fields: dict[tuple[int, int], object] = {}

    def field(self, p: int, m: int):
        if (p, m) not in self.fields:
            import numpy as np

            F = self.gf.GF(p, m)
            one = np.ones(1, dtype=np.int64)
            F.np_mul(one, one)  # fills the lazy numpy tables
            self.fields[(p, m)] = F
        return self.fields[(p, m)]

    def point(self, F, t: int):
        return self.pgl2.INF if t == F.q else F.from_value(t)


# ---------------------------------------------------------------------------
# shared generators
# ---------------------------------------------------------------------------

def hyperbolic_orders(q: int) -> list[int]:
    return [n for n in range(3, q) if (q - 1) % n == 0]


def random_spec(F: oracle.Field, kind: str, n: int, beta_type: str, rng: random.Random):
    """A valid orbit-code spec: matrix of order n fixing beta, seed alpha off
    the fixed points; the expected inverse orbit and fixed points come with
    it."""
    if beta_type == "inf":
        beta = F.inf
    elif beta_type == "zero":
        beta = 0
    else:
        beta = rng.randrange(1, F.q)
    other = beta
    while other == beta:
        other = rng.randrange(F.q + 1)
    A, fixed = oracle.matrix_with_fixed_points(F, kind, n, beta, other, rng)
    alpha = beta
    while alpha in fixed:
        alpha = rng.randrange(F.q + 1)
    orbit = oracle.inverse_orbit(F, A, alpha)
    if len(orbit) != n or any(oracle.apply(F, A, t) != t for t in fixed):
        raise AssertionError("generator built a spec of the wrong shape")
    return A, alpha, beta, orbit, fixed


def canonical_matrix(F: oracle.Field, kind: str, n: int) -> str:
    """Canonical representative: [[1, 1], [0, 1]] for the translation class,
    else diag(1, c) with c the smallest element of order n."""
    if kind == "parabolic":
        return oracle.format_matrix(F, (1, 1, 0, 1))
    c = min(F.elements_of_order(n))
    return oracle.format_matrix(F, (1, 0, 0, c))


def random_full_rank(F: oracle.Field, k: int, n: int, rng: random.Random, zeros: int = 0):
    """A random k x n generator of rank k; with zeros > 0 the first row
    vanishes on that many coordinates, so the code has a word of weight
    n - zeros and is not MDS when zeros >= k."""
    while True:
        rows = [[rng.randrange(F.q) for _ in range(n)] for _ in range(k)]
        for j in rng.sample(range(n), zeros):
            rows[0][j] = 0
        if oracle.rank(F, rows) == k:
            return rows


def permutation_at(n: int, rank: int) -> tuple[int, ...]:
    """The permutation of range(n) at this rank in lexicographic order, the
    order in which the library's search tries them."""
    items = list(range(n))
    out = []
    for i in range(n, 0, -1):
        block = math.factorial(i - 1)
        out.append(items.pop(rank // block))
        rank %= block
    return tuple(out)


def random_monomial(F: oracle.Field, n: int, frac: float, rng: random.Random):
    perm = permutation_at(n, min(int(frac * math.factorial(n)), math.factorial(n) - 1))
    return perm, random_multipliers(F, n, rng)


def random_multipliers(F: oracle.Field, n: int, rng: random.Random) -> list[int]:
    return [rng.randrange(1, F.q) for _ in range(n)]


def random_points(F: oracle.Field, n: int, rng: random.Random) -> list[int]:
    return rng.sample(range(F.q), n)


def grs_pair_inequivalent(F: oracle.Field, n: int, rng: random.Random):
    """Two n-point subsets of GF(q) that no Mobius map carries onto each other."""
    while True:
        S1, S2 = random_points(F, n, rng), random_points(F, n, rng)
        if not oracle.projectively_equivalent(F, S1, S2):
            return S1, S2


# ---------------------------------------------------------------------------
# sweep: construct, transport and canonicalize orbit codes
# ---------------------------------------------------------------------------

class Sweep:
    """One op: MobiusMap + OrbitCodeSpec with order() and fixed_points(),
    construct_orbit_code and is_cyclic, every pole transport the pole
    allows, canonicalize, and splitting_report on the GF(8) and GF(11)
    cells (2 of 7 per cycle)."""

    QS = [(7, 1), (2, 3), (3, 2), (11, 1), (2, 4), (5, 2), (3, 3)]
    CANDLE = ("python",)
    SPLIT = {(2, 3), (11, 1)}
    BETA_TYPES = ["finite", "zero", "inf"]

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.rng = random.Random(f"sweep:{seed}")
        self.shift = self.rng.random()
        self.shapes = {}
        for pm in self.QS:
            F = ofield(*pm)
            shapes = [("hyperbolic", n) for n in hyperbolic_orders(F.q)]
            if F.p >= 3:
                shapes.append(("parabolic", F.p))
            self.shapes[pm] = [(kind, n, bt) for kind, n in shapes for bt in self.BETA_TYPES]

    def make(self, pm, kind: str, n: int, beta_type: str, split: bool, frac: float) -> dict:
        F = ofield(*pm)
        r = 1 + int(frac * (n - 2))
        A, alpha, beta, orbit, fixed = random_spec(F, kind, n, beta_type, self.rng)
        return {"pm": pm, "kind": kind, "n": n, "r": r, "matrix": A, "alpha": alpha,
                "fixed": sorted(fixed), "beta": beta, "beta_type": beta_type, "split": split,
                "canonical": canonical_matrix(F, kind, n)}

    def cycle(self, j: int) -> list[dict]:
        cases = []
        for pm in self.QS:
            shapes = self.shapes[pm]
            kind, n, beta_type = shapes[j % len(shapes)]
            # r spread evenly over the passes through this field's shapes
            frac = (vdc(j // len(shapes)) + self.shift) % 1.0
            cases.append(self.make(pm, kind, n, beta_type, pm in self.SPLIT, frac))
        return cases

    def run(self, case: dict) -> dict:
        lib = self.lib
        con = lib.construction
        F = lib.field(*case["pm"])
        matrix = lib.pgl2.MobiusMap(*(F.from_value(x) for x in case["matrix"]))
        alpha = lib.point(F, case["alpha"])
        spec = con.OrbitCodeSpec(matrix, alpha, lib.point(F, case["beta"]), case["r"])
        order = matrix.order()
        fixed = matrix.fixed_points()
        code = con.construct_orbit_code(spec)
        cyclic = code.is_cyclic()
        transported = []
        moved = spec
        if case["beta_type"] == "finite":
            moved = con.transport_pole_to_zero(moved)
            transported.append(con.construct_orbit_code(moved).equals(code))
        if case["beta_type"] in ("finite", "zero"):
            moved = con.transport_zero_to_infinity(moved)
            transported.append(con.construct_orbit_code(moved).equals(code))
        canonical = con.canonicalize(spec)
        split = lib.fixedfield.splitting_report(matrix, alpha) if case["split"] else None
        return {"order": order, "fixed": fixed, "n": spec.n, "code": code, "cyclic": cyclic,
                "transported": transported, "canonical": canonical, "split": split}

    @staticmethod
    def check(case: dict, out: dict) -> list[str]:
        problems = []
        n, r = case["n"], case["r"]
        if out["order"] != n or out["n"] != n:
            problems.append(f"order {out['order']} / length {out['n']}, expected {n}")
        q = out["code"].field.q
        fixed = sorted(getattr(t, "val", q) for t in out["fixed"])  # INF has no value
        if fixed != case["fixed"]:
            problems.append(f"fixed points {fixed}, expected {case['fixed']}")
        if out["code"].dimension() != r + 1:
            problems.append(f"k = {out['code'].dimension()}, expected r + 1 = {r + 1}")
        if out["cyclic"] is not True:
            problems.append("constructed code is not cyclic")
        expected_moves = {"finite": 2, "zero": 1, "inf": 0}[case["beta_type"]]
        if out["transported"] != [True] * expected_moves:
            problems.append(f"transports preserved the code: {out['transported']}")
        canon = out["canonical"]
        if str(canon.spec.matrix) != case["canonical"] or canon.spec.r != r:
            problems.append(f"canonical form {canon.spec.matrix} r={canon.spec.r}, "
                            f"expected {case['canonical']} r={r}")
        witness = canon.witness.tolist()
        if canon.relation not in ("EQUAL", "EQUIVALENT") or not oracle.is_monomial(q, witness):
            problems.append(f"canonical relation {canon.relation} with a non-monomial witness")
        split = out["split"]
        if case["split"] and not (split.all_ok and len(split.orbit) == n):
            problems.append("splitting report failed on the orbit")
        return problems


# ---------------------------------------------------------------------------
# enumerate: exhaustive weight distributions
# ---------------------------------------------------------------------------

class Enumerate:
    """One op: weight_distribution of a roots-of-unity code, the evaluation
    of L(r P_0 + s P_inf) on a coset of the n-th roots of unity (a GRS code,
    so MDS).  Cells fix (field, n, k): high-rate codes (k > n - k) where a
    dual enumeration would pay and low-rate ones where it cannot."""

    CANDLE = ("numpy",)
    CELLS = [  # (p, m, n, k)
        (3, 2, 8, 6),     # 531441 words, high rate
        (13, 1, 6, 4),    # 28561, high rate
        (13, 1, 12, 5),   # 371293, low rate
        (2, 4, 5, 4),     # 65536, high rate
        (2, 4, 15, 5),    # 1048576, low rate
        (5, 2, 6, 4),     # 390625, high rate
        (5, 2, 24, 3),    # 15625, low rate
        (3, 3, 26, 4),    # 531441, low rate
        (3, 4, 5, 3),     # 531441, high rate
        (3, 4, 16, 3),    # 531441, low rate
        (2, 8, 3, 2),     # 65536, high rate
        (2, 8, 255, 2),   # 65536, low rate, n = 255
    ]
    # undecided under the default codeword budget today; run only as a
    # reach probe in the traced run, never in the timed mix
    REACH = [(3, 4, 16, 4), (2, 8, 17, 3), (2, 4, 15, 6), (3, 3, 26, 5), (13, 1, 12, 7)]

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.rng = random.Random(f"enumerate:{seed}")

    def make(self, p: int, m: int, n: int, k: int) -> dict:
        F = ofield(p, m)
        omega = self.rng.choice(F.elements_of_order(n))
        coset = self.rng.randrange(1, F.q)
        points = [F.mul(coset, F.pow(omega, i)) for i in range(n)]
        r = self.rng.randint(0, k - 1)  # L(r P_0 + s P_inf), r + s = k - 1
        multipliers = [F.inv(F.pow(x, r)) for x in points]
        return {"pm": (p, m), "n": n, "k": k, "q": F.q, "words": F.q ** k,
                "rows": oracle.grs_rows(F, points, multipliers, k)}

    def cycle(self, j: int) -> list[dict]:
        return [self.make(*cell) for cell in self.CELLS]

    def run(self, case: dict):
        F = self.lib.field(*case["pm"])
        return self.lib.lincode.LinearCode(F, case["rows"]).weight_distribution()

    @staticmethod
    def check(case: dict, out) -> list[str]:
        expected = oracle.mds_weight_distribution(case["q"], case["n"], case["k"])
        got = [int(x) for x in out]
        if got != expected:
            return [f"weight distribution {got} != MDS closed form {expected}"]
        return []


# ---------------------------------------------------------------------------
# equiv: monomial equivalence decisions
# ---------------------------------------------------------------------------

class Equiv:
    """One op: monomial_equivalence of two [n, k] codes, n in {6, 7}, in
    roughly equal thirds: planted monomial images of GRS codes (EQUIVALENT),
    GRS codes on point sets no Mobius map carries onto each other
    (INEQUIVALENT with equal weight enumerators, so every permutation is
    tried), and a GRS code against a non-MDS code (INEQUIVALENT by the
    weight-enumerator filter).

    Every cycle holds the same 24 shapes: each kind over two or three fields
    and k in {2, 3, 4} at n = 6 (the filtered pairs alternate n = 6, 7).  The
    first cycle adds a planted and a GRS pair at n = 7, whose 5040
    permutations make them ten times dearer; with more of them the ten
    slowest ops of a run, and so its tail, would be these few.  The search meets
    the planted permutation half way through the search order, the mean
    position of a random one.  Over GF(7) and GF(8) every 6- or 7-point set
    has so many Mobius symmetries that some witness comes within the first
    n!/n permutations, so planted pairs use GF(11) and GF(13), whose
    per-permutation costs match and keep the op cost of the planted third,
    and with it the median op, the same in every cycle."""

    PLANTED_FIELDS = {6: [(11, 1), (13, 1)], 7: [(13, 1)]}
    GRS_FIELDS = {6: [(3, 2), (11, 1), (13, 1)], 7: [(11, 1)]}
    FILTER_FIELDS = [(7, 1), (2, 3), (13, 1)]
    CANDLE = ("python",)

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.rng = random.Random(f"equiv:{seed}")

    def planted(self, pm, n: int, k: int) -> dict:
        """A GRS code and a monomial image of it whose search stops at rank
        n!/2.  The column permutations the search accepts are the planted
        one composed with the code's automorphisms, which come from the
        Mobius maps preserving its point set; the points are drawn (in
        random order) until the planted permutation is the first of them."""
        F = ofield(*pm)
        perm = permutation_at(n, math.factorial(n) // 2)
        while True:
            S = random_points(F, n, self.rng)
            autos = oracle.stabilizer_permutations(F, S)
            if all(tuple(pi[x] for x in perm) >= perm for pi in autos):
                break
        g1 = oracle.grs_rows(F, S, random_multipliers(F, n, self.rng), k)
        g2 = oracle.monomial_image(F, g1, perm, random_multipliers(F, n, self.rng))
        return {"kind": "planted", "pm": pm, "n": n, "k": k, "g1": g1, "g2": g2,
                "rank": math.factorial(n) // 2, "expected": "EQUIVALENT"}

    def grs(self, pm, n: int, k: int) -> dict:
        F = ofield(*pm)
        S1, S2 = grs_pair_inequivalent(F, n, self.rng)
        return {"kind": "grs", "pm": pm, "n": n, "k": k,
                "g1": oracle.grs_rows(F, S1, random_multipliers(F, n, self.rng), k),
                "g2": oracle.grs_rows(F, S2, random_multipliers(F, n, self.rng), k),
                "points": (S1, S2), "expected": "INEQUIVALENT"}

    def filtered(self, pm, n: int, k: int) -> dict:
        F = ofield(*pm)
        S = random_points(F, n, self.rng)
        return {"kind": "filter", "pm": pm, "n": n, "k": k,
                "g1": oracle.grs_rows(F, S, random_multipliers(F, n, self.rng), k),
                "g2": random_full_rank(F, k, n, self.rng, zeros=k),
                "expected": "INEQUIVALENT"}

    def cycle(self, j: int) -> list[dict]:
        cases = []
        for pm, k in product(self.PLANTED_FIELDS[6], (2, 3, 4)):
            cases.append(self.planted(pm, 6, k))
        for pm, k in product(self.GRS_FIELDS[6], (2, 3, 4)):
            cases.append(self.grs(pm, 6, k))
        for t, (pm, k) in enumerate(product(self.FILTER_FIELDS, (2, 3, 4))):
            cases.append(self.filtered(pm, 6 + t % 2, k))
        if j == 0:
            cases.append(self.planted(self.PLANTED_FIELDS[7][0], 7, 3))
            cases.append(self.grs(self.GRS_FIELDS[7][0], 7, 3))
        return cases

    def run(self, case: dict) -> dict:
        lc = self.lib.lincode
        F = self.lib.field(*case["pm"])
        c1, c2 = lc.LinearCode(F, case["g1"]), lc.LinearCode(F, case["g2"])
        return {"c1": c1, "c2": c2, "verdict": lc.monomial_equivalence(c1, c2)}

    def check(self, case: dict, out: dict) -> list[str]:
        verdict = out["verdict"]
        if verdict.status != case["expected"]:
            return [f"{case['kind']} pair decided {verdict.status}, expected {case['expected']}"]
        if case["kind"] == "grs":
            F = ofield(*case["pm"])
            if oracle.projectively_equivalent(F, *case["points"]):
                return ["point-set oracle says the GRS pair is equivalent"]
        if case["kind"] == "filter" and "weight enumerators" not in verdict.reason:
            return [f"non-MDS pair passed the weight-enumerator filter: {verdict.reason}"]
        if case["kind"] == "planted":
            q = out["c1"].field.q
            witness = verdict.witness
            if witness is None or not oracle.is_monomial(q, witness.tolist()):
                return ["EQUIVALENT verdict without a monomial witness"]
            if not out["c1"].apply_monomial(witness).equals(out["c2"]):
                return ["witness does not map the first code onto the second"]
        return []


# ---------------------------------------------------------------------------
# cli: in-process command-line calls
# ---------------------------------------------------------------------------

class Cli:
    """One op: agcyclic.cli.main(argv) with stdout captured.  A cycle runs
    each of fifteen argv lists twice (the second run must print the same
    bytes): two each of construct, verify, canonical, orbit, fixedfield and
    equiv over small fields; the fixed roots-of-unity example over GF(9)
    (531441 words, enumerated three times); orbit over GF(2^16) and verify
    over GF(3^10), each of which builds its field tables inside the call."""

    SMALL = [(7, 1), (2, 3), (3, 2), (11, 1), (13, 1)]
    CANDLE = ("python", "numpy")
    ORBIT_FIELDS = [(7, 1), (3, 2), (13, 1), (5, 2), (3, 3)]
    FIXED_FIELDS = [(7, 1), (2, 3), (3, 2)]
    EQUIV_FIELDS = [(7, 1), (11, 1), (13, 1)]

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.rng = random.Random(f"cli:{seed}")

    def spec_args(self, F, kind, n, beta_type):
        A, alpha, beta, orbit, _ = random_spec(F, kind, n, beta_type, self.rng)
        return A, alpha, beta, orbit, ["--q", field_spec(F), "--matrix", oracle.format_matrix(F, A),
                                       "--alpha", F.format_point(alpha)]

    def small_shape(self, F, j: int, max_k: int | None = None):
        """Spec shape for cycle j, r spread evenly over the cycles; r keeps
        k = r + 1 <= max_k so the call's exhaustive distance stays cheap."""
        shapes = [("hyperbolic", n) for n in hyperbolic_orders(F.q)]
        if F.p >= 3:
            shapes.append(("parabolic", F.p))
        kind, n = shapes[j % len(shapes)]
        top = n - 2 if max_k is None else max(1, min(n - 2, max_k - 1))
        return kind, n, 1 + int(vdc(j) * top), ["finite", "zero", "inf"][j % 3]

    def construct(self, F, j: int) -> dict:
        kind, n, r, bt = self.small_shape(F, j, max_k=3)
        A, alpha, beta, orbit, args = self.spec_args(F, kind, n, bt)
        return {"cmd": "construct", "q": F.q, "n": n, "k": r + 1,
                "argv": ["construct", *args, "--beta", F.format_point(beta), "--r", str(r)]}

    def verify(self, F, j: int, n: int | None = None) -> dict:
        """Verify the orbit places against r * P_beta; with n given, a
        scaling of order n (fields too large for an exhaustive distance)."""
        if n is None:
            kind, n, r, bt = self.small_shape(F, j, max_k=3)
            distance = n - r
        else:
            kind, bt, distance = "hyperbolic", ["finite", "zero", "inf"][j % 3], None
            r = 1 + int(vdc(j) * (n - 2))
        A, alpha, beta, orbit, _ = self.spec_args(F, kind, n, bt)
        places = ",".join("inf" if t == F.inf else f"a={F.format(t)}" for t in orbit)
        G = f"{r}*inf" if beta == F.inf else f"{r}*a={F.format(beta)}"
        return {"cmd": "verify", "q": F.q, "n": n, "k": r + 1, "distance": distance,
                "argv": ["verify", "--q", field_spec(F), "--matrix", oracle.format_matrix(F, A),
                         "--places", places, "--G", G]}

    def canonical(self, F, j: int) -> dict:
        kind, n, r, bt = self.small_shape(F, j)
        A, alpha, beta, orbit, args = self.spec_args(F, kind, n, bt)
        return {"cmd": "canonical", "r": r, "canonical": canonical_matrix(F, kind, n),
                "argv": ["canonical", *args, "--beta", F.format_point(beta), "--r", str(r)]}

    def orbit(self, F, j: int, n: int | None = None) -> dict:
        if n is None:
            kind, n, _, bt = self.small_shape(F, j)
        else:
            kind, bt = "hyperbolic", ["zero", "inf"][j % 2]
        A, alpha, beta, orbit, args = self.spec_args(F, kind, n, bt)
        return {"cmd": "orbit", "n": n, "orbit": [F.format_point(t) for t in orbit],
                "argv": ["orbit", *args]}

    def fixedfield(self, F, j: int) -> dict:
        kind, n, _, bt = self.small_shape(F, j)
        A, alpha, beta, orbit, args = self.spec_args(F, kind, n, bt)
        return {"cmd": "fixedfield", "q": F.q, "n": n,
                "orbit": [F.format_point(t) for t in orbit], "argv": ["fixedfield", *args]}

    def equiv(self, F, j: int) -> dict:
        """[5, k] pairs: a planted monomial image (even j) or an MDS code
        against a non-MDS one (odd j)."""
        k = 2 + j % 2
        if j % 2 == 0:
            g1 = random_full_rank(F, k, 5, self.rng)
            perm, scales = random_monomial(F, 5, (1 + vdc(j)) / 3, self.rng)
            g2, expected = oracle.monomial_image(F, g1, perm, scales), "EQUIVALENT"
        else:
            S = random_points(F, 5, self.rng)
            g1 = oracle.grs_rows(F, S, random_multipliers(F, 5, self.rng), k)
            g2, expected = random_full_rank(F, k, 5, self.rng, zeros=k), "INEQUIVALENT"

        def gen(rows):
            return ";".join(",".join(F.format(x) for x in row) for row in rows)
        return {"cmd": "equiv", "q": F.q, "expected": expected,
                "argv": ["equiv", "--q", field_spec(F), "--gen1", gen(g1), "--gen2", gen(g2)]}

    @staticmethod
    def example() -> dict:
        return {"cmd": "example", "q": 9, "n": 8, "k": 6,
                "argv": ["example", "roots-of-unity", "--q", "3^2", "--n", "8",
                         "--r", "2", "--s", "3"]}

    @staticmethod
    def twice(calls: list[dict]) -> list[dict]:
        """Each call as two ops; the second must print the first's bytes."""
        cases = []
        for call in calls:
            call["argv"].append("--json")
            cases.append({**call, "first": None})
            cases.append({**call, "first": cases[-1]})
        return cases

    def cycle(self, j: int) -> list[dict]:
        calls = []
        for i in (2 * j, 2 * j + 1):  # two of each small call per cycle
            small = lambda t: ofield(*self.SMALL[(i + t) % len(self.SMALL)])
            calls += [
                self.construct(small(0), i),
                self.verify(small(1), i + 1),
                self.canonical(small(2), i + 2),
                self.orbit(ofield(*self.ORBIT_FIELDS[i % 5]), i),
                self.fixedfield(ofield(*self.FIXED_FIELDS[i % 3]), i),
                self.equiv(ofield(*self.EQUIV_FIELDS[i % 3]), i),
            ]
        return self.twice(calls + [
            self.example(),
            self.orbit(ofield(2, 16), j, n=[3, 5, 17][j % 3]),
            self.verify(ofield(3, 10), j, n=[4, 8, 11][j % 3]),
        ])

    def run(self, case: dict) -> dict:
        buf, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            code = self.lib.cli.main(list(case["argv"]))
        return {"exit": code, "stdout": buf.getvalue(), "stderr": err.getvalue()}

    @staticmethod
    def check(case: dict, out: dict) -> list[str]:
        if case["first"] is None:
            case["stdout"] = out["stdout"]
        elif out["stdout"] != case["first"].get("stdout"):
            return ["repeated call printed different bytes"]
        cmd = case["cmd"]
        expected_exit = 1 if cmd == "equiv" and case["expected"] == "INEQUIVALENT" else 0
        if out["exit"] != expected_exit:
            return [f"exit code {out['exit']}, expected {expected_exit}: {out['stderr'].strip()}"]
        try:
            doc = json.loads(out["stdout"])
        except ValueError:
            return ["stdout is not JSON"]
        return CLI_CHECKS[cmd](case, doc)


def _check_code_doc(case: dict, doc: dict) -> list[str]:
    n, k, q = case["n"], case["k"], case["q"]
    expected = (n, k, n - k + 1, oracle.mds_weight_distribution(q, n, k), True)
    got = (doc["n"], doc["k"], doc["d"], doc["weight_enumerator"], doc["cyclic"])
    if got != expected or not doc["report"]["all_ok"]:
        return [f"(n, k, d, weights, cyclic) = {got}, expected {expected}"]
    return []


def _check_verify(case: dict, doc: dict) -> list[str]:
    got = (doc["n"], doc["dimension"], doc["distance"], doc["all_ok"])
    expected = (case["n"], case["k"], case["distance"], True)
    return [] if got == expected else [f"(n, k, d, all_ok) = {got}, expected {expected}"]


def _check_canonical(case: dict, doc: dict) -> list[str]:
    canon = doc["canonical"]
    got = (canon["matrix"], canon["alpha"], canon["beta"], canon["r"])
    expected = (case["canonical"], "1", "inf", case["r"])
    if got != expected or doc["relation"] not in ("EQUAL", "EQUIVALENT"):
        return [f"canonical {got} {doc['relation']}, expected {expected}"]
    return []


def _check_orbit(case: dict, doc: dict) -> list[str]:
    got = (doc["order"], doc["length"], doc["orbit"], doc["isotropy"])
    expected = (case["n"], case["n"], case["orbit"], 1)
    return [] if got == expected else [f"orbit {got}, expected {expected}"]


def _check_fixedfield(case: dict, doc: dict) -> list[str]:
    m = doc["m"]
    problems = []
    if m != case["n"] or len(doc["fibers"]) != case["q"] + 1:
        problems.append(f"degree {m} over {len(doc['fibers'])} fibers")
    if any(sum(p["e"] * p["f"] for p in fib["places"]) != m for fib in doc["fibers"]):
        problems.append("a fiber's degrees do not sum to m")
    if doc["orbit"] != case["orbit"] or not all(doc["orbit_checks"].values()):
        problems.append("orbit splitting checks failed")
    return problems


def _check_equiv(case: dict, doc: dict) -> list[str]:
    if doc["status"] != case["expected"]:
        return [f"decided {doc['status']}, expected {case['expected']}"]
    if case["expected"] == "INEQUIVALENT" and "weight enumerators" not in doc["reason"]:
        return [f"non-MDS pair passed the weight-enumerator filter: {doc['reason']}"]
    if case["expected"] == "EQUIVALENT":
        w = doc["witness"]
        if not oracle.is_monomial(case["q"], [[0 if x == "0" else 1 for x in row] for row in w]):
            return ["EQUIVALENT verdict without a monomial witness"]
    return []


CLI_CHECKS = {
    "construct": _check_code_doc,
    "example": _check_code_doc,
    "verify": _check_verify,
    "canonical": _check_canonical,
    "orbit": _check_orbit,
    "fixedfield": _check_fixedfield,
    "equiv": _check_equiv,
}

WORKLOADS = {"sweep": Sweep, "enumerate": Enumerate, "equiv": Equiv, "cli": Cli}


def layer_tour(lib) -> list[tuple[object, dict]]:
    """Fixed small calls that together reach every traced entry point: a
    sweep op over GF(7) with a finite pole and a splitting report, and CLI
    construct (which verifies) and equiv calls over GF(7).  A traced run
    ends with them, so every layer reports a measured time whatever the
    workload."""
    sweep, cli = Sweep(lib, 0), Cli(lib, 0)
    F7 = ofield(7, 1)
    return ([(sweep, sweep.make((7, 1), "hyperbolic", 6, "finite", split=True, frac=0.5))]
            + [(cli, case) for case in cli.twice([cli.construct(F7, 0), cli.equiv(F7, 0)])[::2]])
