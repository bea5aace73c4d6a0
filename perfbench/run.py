"""End-to-end simulator benchmark: simulated packets per wall-second.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs workload NAME (see ``perfbench/cells.py``) repeatedly, each time in a
fresh process (``perfbench/child.py``), for about S seconds of wall time,
checks every repetition's simulated outputs, and prints as its last line one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Each
repetition is one attempted operation; it fails if the process fails or if
its outputs differ from the expected ones.  Seed N selects the cell seeds
``4N .. 4N+3`` (see :data:`SEEDS_PER_RUN`); ``--seed 0`` starts with the
experiment's own seed.

``--trace 0`` reports the end-to-end metrics (medians over the
repetitions): ``pkts_per_s``, ``setup_s`` and ``peak_rss_mib``.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (medians) and the tracing overhead.

Exits 2 without a result when the simulator's sources are not next to the
benchmark, and 1 when no repetition produced metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
EXPECTED = HERE / "expected.json"
BENCHMARK = ROOT / "BENCHMARK.json"

WORKLOADS = ("netfpga_reorder", "clos_spray_juggler", "clos_spray_standard")

#: A ``--trace 0`` run cycles its repetitions through this many cell seeds,
#: ``SEEDS_PER_RUN * seed`` onwards, so that its median does not hang on
#: one input: on about one seed in nine, ``netfpga_reorder``'s flow takes a
#: spurious fast retransmit and runs at 60% of its rate with less memory.
#: A ``--trace 1`` run uses the first of them only, so its exact counts
#: repeat whatever the number of repetitions.
SEEDS_PER_RUN = 4

#: Untraced repetitions a ``--trace 0`` run makes even when ``--seconds``
#: has passed (unless the deadline below has too): one per cell seed.
MIN_REPS = SEEDS_PER_RUN

#: No repetition starts once this much wall time has passed, and none may
#: take longer than the timeout, so that even a traced pair started at the
#: deadline ends inside the 180 s a run may take.
DEADLINE_S = 60.0
CHILD_TIMEOUT_S = 50.0

#: Largest relative gap allowed between the layers' summed self times and
#: the traced loop's wall time.
SPAN_SUM_TOLERANCE = 0.02

#: Per-layer metrics that come from span self times: layer -> metric names.
#: They are omitted for a layer an entry point of which no longer exists.
SPAN_METRICS = {
    "sim": ("sim.self_share", "sim.self_ns_per_event"),
    "fabric": ("fabric.self_share", "fabric.self_ns_per_pkt"),
    "nic": ("nic.self_share",),
    "core": ("core.self_share", "core.self_ns_per_pkt"),
    "tcp": ("tcp.self_share", "tcp.self_ns_per_segment"),
}


@dataclass
class Repetition:
    """One child process's result and its verdict."""

    seed: int
    result: Optional[dict]
    error: Optional[str]

    @property
    def ok(self) -> bool:
        return self.error is None


def run_child(workload: str, seed: int, traced: bool) -> Repetition:
    """Run one repetition in a fresh interpreter and parse its result."""
    cmd = [sys.executable, str(CHILD), "--workload", workload,
           "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    # A fixed string-hash seed gives every repetition the same dict and set
    # layouts, so hash randomisation cannot make one repetition faster.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        return Repetition(seed, None, "timed out")
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return Repetition(seed, None, f"exit {proc.returncode}: {tail[0]}")
    try:
        return Repetition(seed,
                          json.loads(proc.stdout.strip().splitlines()[-1]),
                          None)
    except (ValueError, IndexError):
        return Repetition(seed, None, "unparseable result")


def output_errors(outputs: dict, reference: Optional[dict],
                  first: Optional[dict]) -> List[str]:
    """Why ``outputs`` is wrong: mismatches with the committed expected
    values (when recorded for its seed) or with the run's first repetition
    of its seed, and broken invariants that hold for every seed."""
    errors = []
    for name, want in (("expected", reference),
                       ("first repetition of its seed", first)):
        if want is not None and outputs != want:
            keys = sorted(k for k in set(want) | set(outputs)
                          if want.get(k) != outputs.get(k))
            errors.append(f"differs from {name} in {keys}")
    delivered = outputs.get("delivered_bytes") or []
    if not delivered or min(delivered) <= 0:
        errors.append("a connection delivered nothing")
    if not 0 < outputs.get("gro_segments", 0) <= outputs.get("gro_mtus", 0):
        errors.append("GRO segment and MTU counts are inconsistent")
    if "rpcs_completed" in outputs and outputs["rpcs_completed"] <= 0:
        errors.append("no RPC completed")
    return errors


def check(reps: List[Repetition], expected: dict) -> None:
    """Mark each repetition whose outputs are wrong as failed.

    ``expected`` maps a cell seed (as a string) to its recorded outputs.
    """
    first: Dict[int, dict] = {}
    for rep in reps:
        if not rep.ok:
            continue
        outputs = rep.result["outputs"]
        errors = output_errors(outputs, expected.get(str(rep.seed)),
                               first.get(rep.seed))
        first.setdefault(rep.seed, outputs)
        if errors:
            rep.error = "; ".join(errors)


def layer_metrics(traced: dict, untraced_loop_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced repetition."""
    c = traced["counters"]
    pkts = c["pkts"]
    # Span times are wall times, so shares are taken of the loop's wall time.
    loop_ns = traced["loop_wall_s"] * 1e9
    spans = traced["spans"]
    total_ns = sum(v["self_ns"] for v in spans.values())
    if abs(total_ns - loop_ns) > SPAN_SUM_TOLERANCE * loop_ns:
        raise ValueError(f"layer self times sum to {total_ns / 1e9:.4f} s, "
                         f"traced loop took {loop_ns / 1e9:.4f} s")

    # Per-item times are scaled to reference nanoseconds like the loop.
    scale = traced["loop_s"] / traced["loop_wall_s"]

    def self_ns(layer: str) -> int:
        return spans.get(layer, {}).get("self_ns", 0)

    def ref_ns(layer: str) -> float:
        return self_ns(layer) * scale

    segments = c["tcp_segments"]
    metrics = {
        "sim.self_share": self_ns("sim") / loop_ns,
        "sim.self_ns_per_event": ref_ns("sim") / c["events"],
        "fabric.self_share": self_ns("fabric") / loop_ns,
        "fabric.self_ns_per_pkt": ref_ns("fabric") / pkts,
        "nic.self_share": self_ns("nic") / loop_ns,
        "core.self_share": self_ns("core") / loop_ns,
        "core.self_ns_per_pkt": ref_ns("core") / pkts,
        "tcp.self_share": self_ns("tcp") / loop_ns,
        "tcp.self_ns_per_segment": ref_ns("tcp") / segments,
        "workloads.self_share": self_ns("workloads") / loop_ns,
        "other.self_share": self_ns("other") / loop_ns,
    }
    for layer in traced["missing"]:
        for name in SPAN_METRICS.get(layer, ()):
            metrics.pop(name, None)
    objects = traced["objects"]
    metrics.update({
        "sim.events_per_pkt": c["events"] / pkts,
        "fabric.hops_per_pkt": c["link_packets"] / pkts,
        "fabric.drops": c["link_drops"],
        "nic.pkts_per_poll": pkts / c["polls"],
        "nic.ring_drops": c["ring_drops"],
        "core.batching": c["gro_mtus"] / c["gro_segments"],
        "tcp.segments_per_pkt": segments / pkts,
        "tcp.ooo_segments": c["tcp_ooo_segments"],
        "tcp.retx_packets": c["tcp_retx_packets"],
        "workloads.rpcs_completed": c["rpcs_completed"],
        "traced_run.overhead_ratio": traced["loop_s"] / untraced_loop_s,
    })
    for name in ("packet_objs", "segment_objs"):
        if name in objects:
            metrics[f"net.{name}_per_pkt"] = objects[name] / pkts
    return metrics


def end_to_end_metrics(results: List[dict]) -> Dict[str, float]:
    """Medians over the untraced repetitions' results."""
    return {
        "pkts_per_s": statistics.median(
            r["counters"]["pkts"] / r["loop_s"] for r in results),
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "peak_rss_mib": statistics.median(r["rss_mib"] for r in results),
    }


def median_metrics(samples: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-metric medians over the metrics present in every sample."""
    names = set(samples[0]).intersection(*samples[1:])
    return {n: statistics.median(s[n] for s in samples) for n in sorted(names)}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"simulator sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    declared = json.loads(BENCHMARK.read_text())
    units = {m["name"]: m["unit"]
             for m in declared["end_to_end"] + declared["per_layer"]}
    expected = json.loads(EXPECTED.read_text()).get(args.workload, {})
    first_seed = SEEDS_PER_RUN * args.seed

    started = time.perf_counter()
    reps: List[Repetition] = []
    pairs = []
    while True:
        elapsed = time.perf_counter() - started
        done = len(pairs) if args.trace else len(reps)
        enough = done >= (1 if args.trace else MIN_REPS)
        if done and (elapsed >= DEADLINE_S
                     or (enough and elapsed >= args.seconds)):
            break
        seed = first_seed + (0 if args.trace else done % SEEDS_PER_RUN)
        plain = run_child(args.workload, seed, traced=False)
        reps.append(plain)
        if args.trace:
            traced = run_child(args.workload, seed, traced=True)
            reps.append(traced)
            pairs.append((plain, traced))
    check(reps, expected)

    # A repetition with wrong outputs still timed its loop: its figures
    # count, and the run reports it as failed.
    measured = [r.result for r in reps if r.result is not None]
    metrics: Dict[str, float] = {}
    if args.trace:
        samples = []
        for plain, traced in pairs:
            if plain.result is None or traced.result is None:
                continue
            try:
                samples.append(layer_metrics(traced.result,
                                             plain.result["loop_s"]))
            except ValueError as exc:
                traced.error = str(exc)
        if samples:
            metrics = median_metrics(samples)
        traced_result = pairs[0][1].result
        missing = traced_result["missing"] if traced_result else {}
        for layer, where in missing.items():
            print(f"layer {layer}: no entry point {', '.join(where)}; its "
                  f"span metrics are left out", file=sys.stderr)
    elif measured:
        metrics = end_to_end_metrics(measured)
    if measured:
        print("median wall-clock figures: pkts/s %.1f, setup %.4f s over %d "
              "repetitions" % (
                  statistics.median(r["counters"]["pkts"] / r["loop_wall_s"]
                                    for r in measured),
                  statistics.median(r["setup_wall_s"] for r in measured),
                  len(measured)), file=sys.stderr)
    failed = [r for r in reps if not r.ok]
    for rep in failed:
        print(f"failed repetition: {rep.error}", file=sys.stderr)
    unrecorded = sorted({r.seed for r in reps} - set(map(int, expected)))
    if unrecorded:
        print(f"no expected outputs recorded for {args.workload} cell seeds "
              f"{unrecorded}: checked determinism and invariants only",
              file=sys.stderr)
    if not metrics:
        print("no repetition produced metrics", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not failed,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
