"""Set-up time of one workload in a fresh interpreter: import agcyclic and
build the workload's fields with their numpy tables.  Prints the seconds and
the machine's slowdown around them (candle.py).

    python3 bench/setup_probe.py <workload>
"""

import sys
import time
from pathlib import Path

import workloads
from candle import Candle

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    candle = Candle(("python",))
    before = candle.slowdown()
    t0 = time.perf_counter()
    lib = workloads.Library()
    for pm in workloads.FIELDS[sys.argv[1]]:
        lib.field(*pm)
    seconds = time.perf_counter() - t0
    print(seconds, (before + candle.slowdown()) / 2)
