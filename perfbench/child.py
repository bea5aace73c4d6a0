"""One benchmark run of one workload, in a fresh single-threaded process.

    python3 perfbench/child.py --workload NAME --seed CELL_SEED [--traced]

Prints one JSON object: set-up and loop times (wall seconds and reference
seconds, see ``perfbench/reference.py``), peak RSS, the simulated outputs,
the exact layer counters and, with ``--traced``, the per-layer span totals.
``perfbench/run.py`` starts this script once per repetition and aggregates
the results.
"""

import time

from reference import reference_seconds, scaled

_CAL0 = reference_seconds()
#: Set-up is timed from here, before the simulator is imported.
_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"

#: The simulation loop is timed in this many equal stretches of simulated
#: time, with the reference loop run between them.  Splitting
#: ``run_until`` does not change what the simulation computes.
STRETCHES = 64


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    recorder = None
    if args.traced:
        import spans
        recorder = spans.SpanRecorder()
        recorder.install()
    import cells

    cell = cells.build(args.workload, args.seed)
    setup_wall_s = time.perf_counter() - _T0
    before = reference_seconds()
    setup_s = scaled(setup_wall_s, _CAL0, before)
    if recorder is not None:
        # Spans opened while building (t=0 sends, first arrivals) are
        # set-up, not loop; objects built then still count.
        recorder.reset()

    loop_wall_s = loop_s = 0.0
    run_until = cell.engine.run_until
    for k in range(1, STRETCHES + 1):
        start = time.perf_counter()
        run_until(cell.end_ns * k // STRETCHES)
        wall = time.perf_counter() - start
        after = reference_seconds()
        loop_wall_s += wall
        loop_s += scaled(wall, before, after)
        before = after
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "loop_s": loop_s,
        "loop_wall_s": loop_wall_s,
        "rss_mib": rss_mib,
        "outputs": cell.outputs(),
        "counters": cell.counters(),
    }
    if recorder is not None:
        result["spans"] = recorder.totals()
        result["objects"] = recorder.objects
        result["missing"] = recorder.missing
    print(json.dumps(result))


if __name__ == "__main__":
    main()
