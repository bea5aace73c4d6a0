"""Record the expected simulated outputs the benchmark checks against.

    python3 perfbench/record_expected.py

Runs every workload untraced on cell seeds ``0 .. SEEDS-1`` (enough for
``run.py --seed`` 0 to ``SEEDS / SEEDS_PER_RUN - 1``), :data:`JOBS` at a
time, and writes their outputs to ``perfbench/expected.json``.  Re-record
only when a change is meant to alter what the simulator computes, and say
so in that change: the file is the arbiter that a speed-up left the
outputs untouched.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor

from run import EXPECTED, WORKLOADS, run_child

#: Cell seeds recorded per workload.
SEEDS = 128
#: Repetitions run at once.
JOBS = 2


def main() -> int:
    tasks = [(w, s) for w in WORKLOADS for s in range(SEEDS)]
    with ThreadPoolExecutor(JOBS) as pool:
        reps = list(pool.map(lambda t: run_child(*t, traced=False), tasks))
    expected: dict = {w: {} for w in WORKLOADS}
    for (workload, seed), rep in zip(tasks, reps):
        if not rep.ok:
            print(f"{workload} seed {seed}: {rep.error}", file=sys.stderr)
            return 1
        expected[workload][str(seed)] = rep.result["outputs"]
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED} ({len(tasks)} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
