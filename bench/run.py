"""Benchmark of the agcyclic library and CLI.

    python3 bench/run.py --workload {sweep,enumerate,equiv,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout: the library is imported from ./src.  One
client issues one op at a time, each after the previous one completed
(closed loop, one process, one thread), in whole cycles of the workload's
cell mix until S seconds have passed.  Every op's output is checked exactly;
an op whose check fails, or that raises, counts as failed.

--trace 0 prints the end-to-end metrics: ops_per_s, op_p50_ms, op_tail_ms,
setup_s (median of fresh interpreters importing agcyclic and building the
workload's fields) and peak_rss_mb.  --trace 1 wraps the library's entry
points (spans.py) and prints per-layer span metrics, the gf micro-cases,
the tracing overhead and the reach probe; its spans go to
.bench_out/spans-<workload>-<seed>.txt.gz.  The last line of stdout is the
JSON result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from candle import CANDLE_EVERY, Candle, scale

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
TAIL_BEYOND = 10
OVERHEAD_SHARE = 0.3  # of --seconds, spent measuring the tracing overhead


def import_library():
    if not (SRC / "agcyclic" / "__init__.py").is_file():
        sys.exit(f"bench: no library source under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import agcyclic

    if SRC not in Path(agcyclic.__file__).resolve().parents:
        sys.exit(f"bench: imported agcyclic from {agcyclic.__file__}, not from {SRC}")
    import workloads

    return workloads


class Outcome:
    """Latencies and failures of the ops a loop issued.  `latencies` are
    wall seconds; `scaled` are the same divided by the machine's slowdown
    around each op (candle.py), or equal to them in a run without a candle."""

    def __init__(self):
        self.latencies: list[float] = []
        self.midpoints: list[float] = []
        self.scaled: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.words = 0
        self.problems: list[str] = []

    def record(self, case: dict, start: float, seconds: float, problems: list[str]) -> None:
        self.attempted += 1
        self.latencies.append(seconds)
        self.midpoints.append(start + seconds / 2)
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append("; ".join(problems))
        else:
            self.words += case.get("words", 0)


def run_op(workload, case: dict, outcome: Outcome, tracer=None) -> float:
    t0 = time.perf_counter()
    try:
        out = workload.run(case)
    except Exception as exc:  # the library failed this op; the run goes on
        elapsed = time.perf_counter() - t0
        outcome.record(case, t0, elapsed, [f"raised {exc!r}"])
        return elapsed
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.paused = True
    try:
        problems = workload.check(case, out)
    except Exception as exc:  # a malformed result fails the op
        problems = [f"check raised {exc!r}"]
    finally:
        if tracer is not None:
            tracer.paused = False
    outcome.record(case, t0, elapsed, problems)
    return elapsed


def closed_loop(workload, seconds: float, tracer=None, candle=None) -> Outcome:
    """Whole cycles of ops until `seconds` of op time have passed.  With a
    candle, read it every CANDLE_EVERY seconds of op time, and count op
    time at the candle's reference speed, so that a run covers the same ops
    however fast the machine is at the moment."""
    outcome = Outcome()
    readings: list[tuple[float, float]] = []
    slowdown = candle.read(readings) if candle else 1.0
    since = spent = 0.0
    j = 0
    while j == 0 or spent < seconds:
        for case in workload.cycle(j):
            elapsed = run_op(workload, case, outcome, tracer)
            since += elapsed
            spent += elapsed / slowdown
            if candle and since >= CANDLE_EVERY:
                slowdown, since = candle.read(readings), 0.0
        j += 1
    if candle:
        candle.read(readings)
        outcome.scaled = scale(outcome.latencies, outcome.midpoints, readings)
    else:
        outcome.scaled = list(outcome.latencies)
    return outcome


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples above it: the value
    and its percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = max(0, n - TAIL_BEYOND - 1)
    return ordered[idx], 100.0 * (idx + 1) / n


def setup_seconds(workload: str) -> tuple[float, float]:
    """Median set-up time over fresh interpreters (setup_probe.py): wall
    seconds, and seconds scaled by the slowdown the probe measured."""
    wall, scaled = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
        seconds, slowdown = map(float, done.stdout.split()[-2:])
        wall.append(seconds)
        scaled.append(seconds / slowdown)
    return statistics.median(wall), statistics.median(scaled)


def end_to_end(wl, name: str, seed: int, seconds: float):
    setup_wall, setup = setup_seconds(name)
    lib = wl.Library()
    for pm in wl.FIELDS[name]:
        lib.field(*pm)
    workload = wl.WORKLOADS[name](lib, seed)
    outcome = closed_loop(workload, seconds, candle=Candle(workload.CANDLE))
    value, pct = tail(outcome.scaled)
    busy, scaled_busy = sum(outcome.latencies), sum(outcome.scaled)
    ok = outcome.attempted - outcome.failed
    metrics = {
        "ops_per_s": (ok / scaled_busy, "1/s"),
        "op_p50_ms": (statistics.median(outcome.scaled) * 1e3, "ms"),
        "op_tail_ms": (value * 1e3, "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        "times are scaled to the candle's reference speed (candle.py); wall clock:",
        f"  ops_per_s {ok / busy:.6g}, op_p50_ms {statistics.median(outcome.latencies) * 1e3:.6g}, "
        f"op_tail_ms {tail(outcome.latencies)[0] * 1e3:.6g}, setup_s {setup_wall:.6g}",
        f"machine slowdown over the run {busy / scaled_busy:.4g}",
        f"op_tail_ms is p{pct:.1f} of {len(outcome.latencies)} ops ({TAIL_BEYOND} beyond it)",
        f"failed_frac {outcome.failed / outcome.attempted:.6g} "
        f"({outcome.failed} of {outcome.attempted})",
    ]
    if outcome.words:
        notes.append(f"words_per_s {outcome.words / scaled_busy:.6g} (sum of q^k over decided codes)")
    return outcome, metrics, notes


def trace_overhead(wl, lib, name: str, seed: int, budget: float) -> float:
    """Replays the workload's first ops with and without a tracer installed,
    alternating which goes first, and returns traced / untraced - 1."""
    from spans import Tracer

    workload = wl.WORKLOADS[name](lib, seed)
    spent = {True: 0.0, False: 0.0}
    i = j = 0
    while sum(spent.values()) < budget:
        for case in workload.cycle(j):
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                probe = Tracer()
                if traced:
                    probe.install()
                t0 = time.perf_counter()
                try:
                    workload.run(case)
                except Exception:  # counted as failed in the measured loop
                    pass
                spent[traced] += time.perf_counter() - t0
                probe.uninstall()
            i += 1
            if sum(spent.values()) >= budget:
                break
        j += 1
    return spent[True] / spent[False] - 1


def reach_probe(wl, lib, seed: int, outcome: Outcome) -> int:
    """Codes beyond the default codeword budget today: how many stay
    UNDECIDED.  A decided one must match the MDS weight distribution."""
    budget_error = lib.lincode.BudgetExceededError
    enum = wl.Enumerate(lib, seed)
    undecided = 0
    for cell in enum.REACH:
        case = enum.make(*cell)
        t0 = time.perf_counter()
        try:
            out = enum.run(case)
        except budget_error:
            undecided += 1
            continue
        outcome.record(case, t0, time.perf_counter() - t0, enum.check(case, out))
    return undecided


def per_layer(wl, name: str, seed: int, seconds: float):
    import micro
    from spans import Tracer

    lib = wl.Library()
    for pm in wl.FIELDS[name]:
        lib.field(*pm)
    metrics = micro.gf_metrics(lib, seed)
    tracer = Tracer()
    tracer.install()
    outcome = closed_loop(wl.WORKLOADS[name](lib, seed), seconds, tracer)
    for workload, case in wl.layer_tour(lib):
        run_op(workload, case, outcome, tracer)
    tracer.uninstall()
    metrics.update(tracer.metrics())
    overhead = trace_overhead(wl, lib, name, seed, OVERHEAD_SHARE * seconds)
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    metrics["lincode.reach_undecided"] = (reach_probe(wl, lib, seed, outcome), "count")
    path = ROOT / ".bench_out" / f"spans-{name}-{seed}.txt.gz"
    tracer.write(path)
    notes = [f"{len(tracer.start)} spans written to {path.relative_to(ROOT)}",
             f"failed {outcome.failed} of {outcome.attempted}"]
    return outcome, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["sweep", "enumerate", "equiv", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    wl = import_library()
    measure = per_layer if args.trace else end_to_end
    outcome, metrics, notes = measure(wl, args.workload, args.seed, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"{name:52s} {value:>16.6g} {unit}")
    for line in notes + outcome.problems:
        print(f"# {line}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
