"""A fixed pure-Python reference loop that gauges the machine's speed.

The benchmark runs on shared machines whose speed drifts by tens of
percent from one second to the next (other tenants on the same physical
cores).  The simulation loop is timed in short stretches with this loop
run between them; each stretch's wall time is scaled by how much slower or
faster the reference loop ran around it than its nominal time
:data:`NOMINAL_S`.  The result is in *reference seconds*: the wall time
the stretch would have taken at the machine's nominal speed.

The loop does the kinds of work the simulator does (heap pushes and pops,
dict updates, method calls, attribute writes on slotted objects) and never
changes: editing it invalidates every earlier measurement.  It runs with
the cyclic garbage collector off, so that its time does not depend on the
size of the simulator's heap or on where the simulator's allocations put
the next collection; its objects hold no cycles and are freed by
reference counting.
"""

from __future__ import annotations

import gc
import heapq
from time import perf_counter

#: Wall time of one :func:`reference_seconds` call on a quiet 2-vCPU
#: Xeon VM (Python 3.11): the speed every measurement is scaled to.
NOMINAL_S = 0.001


class _Item:
    __slots__ = ("key", "hits")

    def __init__(self, key: int):
        self.key = key
        self.hits = 0

    def touch(self) -> int:
        self.hits += 1
        return self.hits


def reference_seconds() -> float:
    """Wall time of one run of the fixed reference loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        heap: list = []
        table: dict = {}
        for i in range(1500):
            heapq.heappush(heap, ((i * 7919) & 1023, i))
            item = table.get(i & 127)
            if item is None:
                item = table[i & 127] = _Item(i & 127)
            item.touch()
            if len(heap) > 64:
                heapq.heappop(heap)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scaled(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` in reference seconds, given the reference loop's times
    measured just before and just after it."""
    return wall_s * NOMINAL_S * 2 / (before_s + after_s)
