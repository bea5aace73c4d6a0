"""A re-armable one-shot timer, modelled on the kernel's hrtimer.

Juggler registers "one high resolution timer callback per gro_table"
(§4.2.2) to check the ``inseq_timeout`` / ``ofo_timeout`` conditions between
polling intervals.  :class:`Timer` provides that abstraction on top of the
event engine: arm it for a deadline, re-arm to move the deadline, cancel it,
and the callback fires at most once per arming.

Re-arming is the engine's highest-churn operation (the RX queue moves its
hrtimer after every poll), so the timer holds its pending heap entry itself
instead of allocating a handle per arm; each re-arm leaves one tombstone
that the engine's compaction keeps bounded.
"""

from typing import Any, Callable, Optional

from repro.sim.engine import Engine


class Timer:
    """One-shot re-armable timer bound to an engine and a callback."""

    __slots__ = ("_engine", "_callback", "_fire_cb", "_entry")

    def __init__(self, engine: Engine, callback: Callable[[], Any]):
        self._engine = engine
        self._callback = callback
        self._fire_cb = self._fire  # bound once, filed by every arming
        self._entry: Optional[list] = None  # the pending heap entry

    @property
    def armed(self) -> bool:
        """True if the timer has a pending expiry."""
        return self._entry is not None

    @property
    def expires_at(self) -> Optional[int]:
        """Absolute expiry time, or None when disarmed."""
        entry = self._entry
        return None if entry is None else entry[0]

    def arm_at(self, time: int) -> None:
        """(Re-)arm the timer for absolute time ``time``."""
        self.cancel()
        self._entry = self._engine._push(time, self._fire_cb, ())

    def arm_after(self, delay: int) -> None:
        """(Re-)arm the timer ``delay`` ns from now."""
        self.arm_at(self._engine._now + delay)

    def arm_if_earlier(self, time: int) -> None:
        """Arm for ``time`` unless already armed for an earlier deadline:
        Juggler's per-table hrtimer tracks the soonest buffered timeout."""
        entry = self._entry
        if entry is None or entry[0] > time:
            self.arm_at(time)

    def cancel(self) -> None:
        """Disarm the timer if pending.  Idempotent."""
        entry = self._entry
        if entry is not None:
            self._entry = None
            entry[2] = None
            self._engine._tombstone()

    def _fire(self) -> None:
        self._entry = None
        self._callback()
