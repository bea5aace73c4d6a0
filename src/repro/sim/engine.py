"""The discrete-event engine.

A single :class:`Engine` instance owns simulated time for one experiment.
Components hold a reference to the engine, schedule callbacks on it, and read
``engine.now`` for the current time — exactly the role ``ktime_get()`` and
hrtimers play for the kernel GRO path the paper modifies.

Internals (the hot loop of every experiment)
--------------------------------------------
Pending events live in one ``heapq`` of ``[time, seq, callback, args]``
lists.  ``seq`` is unique, so comparisons never get past it: events fire in
``(time, seq)`` order, same-instant ones in scheduling order.  Cancelling
sets the callback slot to ``None`` and leaves a tombstone that the loop
drops when it reaches the top; the loop clears the same slot just before
firing, so a handle to a spent event is inert.  When tombstones outnumber
both live events and :data:`COMPACT_FLOOR`, a compaction pass drops them in
place, bounding residency under sustained timer re-arm churn.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

from repro.sim.event import EventHandle
from repro.trace import runtime as trace_runtime

#: Compaction floor: never bother compacting fewer tombstones than this.
COMPACT_FLOOR = 256

#: Beyond any simulated time (~292 years of nanoseconds).
_FOREVER = 1 << 63


class SimulationError(RuntimeError):
    """Raised on engine misuse (scheduling in the past, etc.)."""


class Engine:
    """A deterministic discrete-event simulation loop.

    Example
    -------
    >>> eng = Engine()
    >>> fired = []
    >>> _ = eng.schedule(100, fired.append, 100)
    >>> _ = eng.schedule(50, fired.append, 50)
    >>> eng.run()
    >>> fired
    [50, 100]
    """

    def __init__(self) -> None:
        self._now = 0
        self._heap: list[list] = []  # [time, seq, callback or None, args]
        self._seq = 0
        self._running = False
        self._events_processed = 0
        self._tombstones = 0
        self._compactions = 0
        tracer = trace_runtime.current()
        if tracer is not None:
            # A new engine restarts simulated time: open a new trace epoch
            # and expose the event-loop totals as gauges.
            tracer.bind_engine(self)

    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of callbacks executed so far (cancelled ones excluded)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Resident events: live **plus** tombstones (see :attr:`pending_live`)."""
        return len(self._heap)

    @property
    def pending_live(self) -> int:
        """Events that will actually fire (cancelled ones excluded)."""
        return len(self._heap) - self._tombstones

    @property
    def tombstones(self) -> int:
        """Cancelled events still resident; at most ``max(pending_live, COMPACT_FLOOR)``."""
        return self._tombstones

    @property
    def compactions(self) -> int:
        """Tombstone-compaction passes run so far."""
        return self._compactions

    # -- scheduling -----------------------------------------------------------

    def schedule(self, delay: int, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` ns from now.

        ``delay`` must be non-negative; a zero delay fires after all events
        already scheduled for the current instant.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}ns in the past")
        return EventHandle(self, self._push(self._now + delay, callback, args))

    def schedule_at(self, time: int, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulation time ``time``."""
        return EventHandle(self, self._push(time, callback, args))

    def post(self, delay: int, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule` for callers that never cancel
        (link transmits, source loops): no handle is allocated."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}ns in the past")
        heappush(self._heap, [self._now + delay, self._seq, callback, args])
        self._seq += 1

    def post_at(self, time: int, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_at`: no cancellation handle."""
        self._push(time, callback, args)

    def _push(self, time: int, callback: Callable[..., Any], args: tuple) -> list:
        """File ``callback(*args)`` at absolute ``time``; return its entry."""
        if time < self._now:
            raise SimulationError(f"cannot schedule at t={time} before now={self._now}")
        entry = [time, self._seq, callback, args]
        self._seq += 1
        heappush(self._heap, entry)
        return entry

    # -- cancellation ---------------------------------------------------------

    def _tombstone(self) -> None:
        """A resident entry was cancelled; compact if tombstones dominate."""
        self._tombstones += 1
        if (self._tombstones > COMPACT_FLOOR
                and 2 * self._tombstones > len(self._heap)):
            self._compactions += 1
            heap = self._heap
            # In place: a running loop's alias of the heap stays valid.
            heap[:] = [entry for entry in heap if entry[2] is not None]
            heapify(heap)
            self._tombstones = 0

    # -- the run loop ---------------------------------------------------------

    def step(self) -> bool:
        """Run the single next event.  Returns False when none are pending."""
        processed = self._events_processed
        self._run(_FOREVER, 1)
        return self._events_processed != processed

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until every live event fired (or ``max_events`` callbacks ran)."""
        self._run(_FOREVER, max_events)

    def run_until(self, time: int) -> None:
        """Run all events with timestamp <= ``time``, then advance now to ``time``.

        Components scheduled past ``time`` stay pending, so a later
        ``run_until`` continues the same experiment.
        """
        if time < self._now:
            raise SimulationError(f"run_until({time}) is before now={self._now}")
        self._run(time, None)
        self._now = time

    def _run(self, until: int, limit: Optional[int]) -> None:
        """Fire due events (time <= ``until``) in order, at most ``limit`` of them."""
        if self._running:
            raise SimulationError("engine is already running (re-entrant run)")
        self._running = True
        heap = self._heap
        fired = 0
        try:
            while heap:
                entry = heap[0]
                if entry[0] > until:
                    break
                heappop(heap)
                callback = entry[2]
                if callback is None:
                    self._tombstones -= 1
                    continue
                entry[2] = None  # the fired mark: later cancels are no-ops
                self._now = entry[0]
                callback(*entry[3])
                self._events_processed += 1
                fired += 1
                if fired == limit:
                    break
        finally:
            self._running = False
