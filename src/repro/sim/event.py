"""Cancellation handles for the discrete-event engine."""


class EventHandle:
    """Cancellation handle returned by :meth:`Engine.schedule`.

    Holds the engine's heap entry ``[time, seq, callback, args]``.  Cancel
    is lazy and O(1), like a kernel timer's: it clears the callback slot and
    leaves a tombstone that the engine drops later.  The engine clears the
    same slot before firing, so a handle to a fired event is inert.
    """

    __slots__ = ("_engine", "_entry")

    def __init__(self, engine, entry: list):
        self._engine = engine
        self._entry = entry

    @property
    def time(self) -> int:
        """The simulation time this event is (or was) scheduled for."""
        return self._entry[0]

    @property
    def active(self) -> bool:
        """True while the event is still pending (not cancelled, not fired)."""
        return self._entry[2] is not None

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        entry = self._entry
        if entry[2] is not None:
            entry[2] = None
            self._engine._tombstone()
