"""Output-queued links with optional strict-priority service.

A :class:`QueuedLink` models one switch/NIC output port: packets enqueue
into one of N strict-priority FIFO queues and are serialised one at a time
at the link rate, then delivered to the downstream sink after the
propagation delay.  Queue depth statistics feed the paper's buffer-occupancy
observations (§5.3.2); the two-priority configuration is the substrate for
the bandwidth-guarantee system (Figures 17, 18).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Protocol

from repro.net.constants import WIRE_OVERHEAD, transmit_time_ns
from repro.net.packet import Packet
from repro.sim.engine import Engine


class PacketSink(Protocol):
    """Anything that accepts packets at their arrival instant."""

    def receive(self, packet: Packet) -> None:  # pragma: no cover - protocol
        ...


@dataclass
class LinkStats:
    """Per-link counters."""

    packets: int = 0
    bytes: int = 0
    drops: int = 0
    busy_ns: int = 0
    max_queue_bytes: int = 0
    ce_marked: int = 0

    def utilization(self, elapsed_ns: int) -> float:
        """Fraction of the window the transmitter was busy."""
        if elapsed_ns <= 0:
            return 0.0
        return self.busy_ns / elapsed_ns


class QueuedLink:
    """One transmitter, N strict-priority queues, infinite-or-capped buffer.

    Each hop costs two engine events: ``_tx_done`` when serialisation ends,
    then the delivery to ``sink`` one propagation delay later.  The sink is
    read when serialisation ends, so swapping ``sink`` at run time (fault
    insertion) redirects every packet still on the wire or in the queues.

    ``engine.post``, ``_tx_done`` and ``sink.receive`` are bound once, at
    construction and on every ``sink`` assignment, so a hop looks none of
    them up again.
    """

    def __init__(
        self,
        engine: Engine,
        rate_gbps: float,
        sink: PacketSink,
        *,
        prop_delay_ns: int = 500,
        priorities: int = 1,
        capacity_bytes: Optional[int] = None,
        ecn_threshold_bytes: Optional[int] = None,
        name: str = "link",
    ):
        if rate_gbps <= 0:
            raise ValueError(f"link rate must be positive, got {rate_gbps}")
        if priorities < 1:
            raise ValueError(f"need at least one priority level, got {priorities}")
        self._engine = engine
        self._post = engine.post
        self._tx_done_cb = self._tx_done
        self._rate_gbps = rate_gbps
        self.sink = sink
        self.prop_delay_ns = prop_delay_ns
        self.capacity_bytes = capacity_bytes
        #: DCTCP-style marking: packets arriving at a queue whose depth
        #: exceeds this get CE-marked (None disables marking).
        self.ecn_threshold_bytes = ecn_threshold_bytes
        self.name = name
        self._queues: List[Deque[Packet]] = [deque() for _ in range(priorities)]
        self._top_level = priorities - 1
        self._queue_bytes: List[int] = [0] * priorities
        #: Zero exactly when every queue is empty (wire lengths are positive).
        self._queued_bytes = 0
        self._busy = False
        #: payload_len -> serialisation ns, each value from transmit_time_ns.
        self._tx_ns: Dict[int, int] = {}
        self.stats = LinkStats()

    @property
    def rate_gbps(self) -> float:
        """Line rate; read-only, since ``_tx_ns`` caches times at this rate."""
        return self._rate_gbps

    @property
    def sink(self) -> PacketSink:
        """Where packets go once serialised and propagated."""
        return self._sink

    @sink.setter
    def sink(self, sink: PacketSink) -> None:
        self._sink = sink
        self._sink_receive = sink.receive

    @property
    def queued_bytes(self) -> int:
        """Bytes waiting (excludes the packet currently on the wire)."""
        return self._queued_bytes

    @property
    def queued_packets(self) -> int:
        """Packets waiting across all priority levels."""
        return sum(len(q) for q in self._queues)

    def queue_depth(self, priority: int) -> int:
        """Packets waiting at one priority level."""
        return len(self._queues[priority])

    def receive(self, packet: Packet) -> None:
        """Alias so a link can terminate another link directly."""
        self.enqueue(packet)

    def enqueue(self, packet: Packet) -> None:
        """Queue ``packet`` for transmission.

        ``capacity_bytes`` bounds each priority level's queue separately
        (switch output queues have per-queue buffers); overflow tail-drops.
        """
        level = packet.priority
        if level > self._top_level:
            level = self._top_level
        payload_len = packet.payload_len
        wire_len = payload_len + WIRE_OVERHEAD
        queue_bytes = self._queue_bytes
        capacity = self.capacity_bytes
        if capacity is not None and queue_bytes[level] + wire_len > capacity:
            self.stats.drops += 1
            return
        threshold = self.ecn_threshold_bytes
        if (
            threshold is not None
            and payload_len > 0
            and queue_bytes[level] > threshold
        ):
            packet.mark_ce()
            self.stats.ce_marked += 1
        if not self._busy:
            # Idle transmitter, so every queue is empty: the packet goes
            # straight on the wire.  Queueing it first would have raised the
            # high-water mark to exactly its wire length.
            if wire_len > self.stats.max_queue_bytes:
                self.stats.max_queue_bytes = wire_len
            self._start(packet, payload_len, wire_len)
            return
        self._queues[level].append(packet)
        queue_bytes[level] += wire_len
        queued = self._queued_bytes = self._queued_bytes + wire_len
        if queued > self.stats.max_queue_bytes:
            self.stats.max_queue_bytes = queued

    def _start(self, packet: Packet, payload_len: int, wire_len: int) -> None:
        """Put ``packet`` on the wire; ``_tx_done`` fires when it is out."""
        self._busy = True
        try:
            tx_ns = self._tx_ns[payload_len]
        except KeyError:
            tx_ns = self._tx_ns[payload_len] = transmit_time_ns(
                payload_len, self._rate_gbps)
        stats = self.stats
        stats.packets += 1
        stats.bytes += wire_len
        stats.busy_ns += tx_ns
        self._post(tx_ns, self._tx_done_cb, packet)

    def _tx_done(self, packet: Packet) -> None:
        # Delivery is posted before the next transmission starts, so at a
        # shared instant it keeps firing first.
        self._post(self.prop_delay_ns, self._sink_receive, packet)
        if not self._queued_bytes:
            self._busy = False
            return
        queues = self._queues
        level = 0
        while not queues[level]:
            level += 1
        packet = queues[level].popleft()
        payload_len = packet.payload_len
        wire_len = payload_len + WIRE_OVERHEAD
        self._queue_bytes[level] -= wire_len
        self._queued_bytes -= wire_len
        self._start(packet, payload_len, wire_len)
