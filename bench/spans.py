"""Layer spans recorded from outside the library.

The tracer replaces each traced entry point with a wrapper that records a
span (name, start, end, parent) and whether an exception passed through it.
A module function is replaced in every agcyclic module that binds it, since
``from .rfield import rr_basis`` gives the importing module its own name for
the function; a method is replaced on its class.  Spans stay in memory and
are written when the run ends.  The scalar field operations (add_i, mul_i)
are never wrapped: a wrapper would cost more than the call it measures.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

# (span name, defining module, attribute; "Class.method" for a method)
SPANS = [
    ("pgl2.order", "agcyclic.pgl2", "MobiusMap.order"),
    ("pgl2.orbit", "agcyclic.pgl2", "MobiusMap.orbit"),
    ("pgl2.fixed_points", "agcyclic.pgl2", "MobiusMap.fixed_points"),
    ("rfield.rr_basis", "agcyclic.rfield", "rr_basis"),
    ("rfield.evaluate_at_place", "agcyclic.rfield", "evaluate_at_place"),
    ("rfield.place_image", "agcyclic.rfield", "place_image"),
    ("rfield.factor", "agcyclic.rfield", "factor"),
    ("rfield.mobius_substitute", "agcyclic.rfield", "mobius_substitute"),
    ("linalg.rref", "agcyclic.linalg", "rref"),
    ("linalg.in_row_space", "agcyclic.linalg", "in_row_space"),
    ("linalg.solve_coordinates", "agcyclic.linalg", "solve_coordinates"),
    ("linalg.left_kernel", "agcyclic.linalg", "left_kernel"),
    ("lincode.weight_distribution", "agcyclic.lincode", "LinearCode.weight_distribution"),
    ("lincode.is_cyclic", "agcyclic.lincode", "LinearCode.is_cyclic"),
    ("lincode.equals", "agcyclic.lincode", "LinearCode.equals"),
    ("lincode.apply_monomial", "agcyclic.lincode", "LinearCode.apply_monomial"),
    ("lincode.monomial_equivalence", "agcyclic.lincode", "monomial_equivalence"),
    ("construction.construct_ag_code", "agcyclic.construction", "construct_ag_code"),
    ("construction.verify_cyclic_construction", "agcyclic.construction",
     "verify_cyclic_construction"),
    ("construction.transport_pole_to_zero", "agcyclic.construction", "transport_pole_to_zero"),
    ("construction.transport_zero_to_infinity", "agcyclic.construction",
     "transport_zero_to_infinity"),
    ("construction.canonicalize", "agcyclic.construction", "canonicalize"),
    ("fixedfield.invariant_generator", "agcyclic.fixedfield", "invariant_generator"),
    ("fixedfield.splitting_report", "agcyclic.fixedfield", "splitting_report"),
    ("cli.main", "agcyclic.cli", "main"),
]
SPAN_NAMES = [name for name, _, _ in SPANS]


class Tracer:
    """Records spans while installed and not paused."""

    def __init__(self):
        self.names: list[str] = SPAN_NAMES
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.failed = bytearray()
        self.stack: list[int] = []
        self.paused = False
        self.rr_divisors: set = set()
        self.words = 0
        self.budget_exceeded = 0
        self.equivalent = 0
        self.filter_rejects = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        for idx, (name, module_name, attr) in enumerate(SPANS):
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, self._wrap(idx, name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(idx, name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "agcyclic" and mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, idx: int, name: str, fn):
        after = {
            "rfield.rr_basis": self._after_rr_basis,
            "lincode.weight_distribution": self._after_weights,
            "lincode.monomial_equivalence": self._after_equivalence,
        }.get(name)
        now = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span = len(self.start)
            self.name_id.append(idx)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.end.append(0)
            self.failed.append(0)
            self.stack.append(span)
            self.start.append(now())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end[span] = now()
                self.failed[span] = 1
                self.stack.pop()
                if name == "lincode.weight_distribution" and type(exc).__name__ == "BudgetExceededError":
                    self.budget_exceeded += 1
                raise
            self.end[span] = now()
            self.stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _after_rr_basis(self, args, result) -> None:
        self.rr_divisors.add(args[0])

    def _after_weights(self, args, result) -> None:
        self.words += int(result.sum())

    def _after_equivalence(self, args, result) -> None:
        if result.status == "EQUIVALENT":
            self.equivalent += 1
        elif "weight enumerators" in result.reason or "dimension differ" in result.reason:
            self.filter_rejects += 1

    # -- results -------------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-span calls, self time and failures, plus the derived counters."""
        n_names = len(self.names)
        calls = [0] * n_names
        failed = [0] * n_names
        self_ns = [0] * n_names
        child_ns = [0] * len(self.start)
        kernels_under = {}
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        equiv_id = self.names.index("lincode.monomial_equivalence")
        kernel_id = self.names.index("linalg.left_kernel")
        for span in range(len(start) - 1, -1, -1):
            dur = end[span] - start[span]
            par = parent[span]
            if par >= 0:
                child_ns[par] += dur
                if name_id[span] == kernel_id and name_id[par] == equiv_id:
                    kernels_under[par] = kernels_under.get(par, 0) + 1
            idx = name_id[span]
            calls[idx] += 1
            failed[idx] += self.failed[span]
            self_ns[idx] += dur - child_ns[span]
        out: dict[str, tuple[float, str]] = {}
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] = (calls[idx], "count")
            out[f"{name}.self_ms"] = (self_ns[idx] / 1e6, "ms")
            out[f"{name}.failed"] = (failed[idx], "count")
        rr_calls = calls[self.names.index("rfield.rr_basis")]
        out["rfield.rr_basis.distinct_ratio"] = (
            len(self.rr_divisors) / rr_calls if rr_calls else 0.0, "ratio")
        # one left_kernel call per decision computes the dual of the target;
        # every further one tests one permutation
        perms = sum(count - 1 for count in kernels_under.values())
        out["lincode.words_enumerated"] = (self.words, "count")
        out["lincode.perms_tried"] = (perms, "count")
        out["lincode.perm_hit_ratio"] = (self.equivalent / perms if perms else 0.0, "ratio")
        out["lincode.filter_rejects"] = (self.filter_rejects, "count")
        out["lincode.budget_exceeded"] = (self.budget_exceeded, "count")
        return out

    def write(self, path) -> None:
        """Spans as 'name start_us end_us parent failed' lines, times from the
        first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0
        with gzip.open(path, "wt") as fh:
            for span in range(len(self.start)):
                fh.write(f"{self.names[self.name_id[span]]} "
                         f"{(self.start[span] - t0) / 1e3:.1f} {(self.end[span] - t0) / 1e3:.1f} "
                         f"{self.parent[span]} {self.failed[span]}\n")
