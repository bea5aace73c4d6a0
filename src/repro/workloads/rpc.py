"""RPC traffic generators.

The Figure 20 experiment: "The senders generate RPCs in an open-loop
fashion, with inter-arrival times drawn from an exponential distribution
(Poisson arrivals) ... The traffic generator randomly multiplexes RPCs
across 8 long-lived TCP sessions between every client-server pair."

An RPC's completion time runs from its (open-loop) arrival at the sender to
the moment its last byte is delivered in order at the receiver — queueing
behind earlier RPCs on the same session counts, as it does in the paper.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

from repro.sim.engine import Engine
from repro.tcp.connection import Connection


@dataclass(frozen=True)
class RpcRecord:
    """One completed RPC."""

    size: int
    start_ns: int
    end_ns: int

    @property
    def latency_ns(self) -> int:
        """Completion time, arrival to in-order delivery."""
        return self.end_ns - self.start_ns


class RpcWorkload:
    """Open-loop Poisson RPCs multiplexed over a connection pool."""

    def __init__(
        self,
        engine: Engine,
        rng: random.Random,
        connections: List[Connection],
        *,
        rpc_bytes: int,
        load_gbps: float,
        stop_at_ns: Optional[int] = None,
    ):
        if not connections:
            raise ValueError("need at least one connection")
        if rpc_bytes <= 0 or load_gbps <= 0:
            raise ValueError("rpc_bytes and load_gbps must be positive")
        self._engine = engine
        self._rng = rng
        self._connections = connections
        self.rpc_bytes = rpc_bytes
        self.load_gbps = load_gbps
        self.stop_at_ns = stop_at_ns
        #: Mean inter-arrival in ns so that size*8/interarrival == load.
        # det: allow(float-ns) -- rate parameter for expovariate, not a timestamp; drawn gaps are rounded to integer ns at draw time
        self.mean_interarrival_ns = rpc_bytes * 8 / load_gbps
        self.records: List[RpcRecord] = []
        self.issued = 0
        #: Per-connection in-flight RPCs, indexed by pool position (a
        #: stable, reproducible key — object ids are not).
        self._pending: List[Deque[Tuple[int, int]]] = [
            deque() for _ in connections]
        for index, conn in enumerate(connections):
            conn.receiver.on_bytes = self._make_on_bytes(index)

    def _make_on_bytes(self, key: int):
        def on_bytes(watermark: int, now: int) -> None:
            pending = self._pending[key]
            while pending and pending[0][0] <= watermark:
                boundary, started = pending.popleft()
                self.records.append(RpcRecord(self.rpc_bytes, started, now))

        return on_bytes

    def start(self) -> None:
        """Schedule the first arrival."""
        self._engine.post(self._next_gap(), self._arrival)

    def _next_gap(self) -> int:
        return max(1, round(self._rng.expovariate(1.0 / self.mean_interarrival_ns)))

    def _arrival(self) -> None:
        now = self._engine.now
        if self.stop_at_ns is not None and now >= self.stop_at_ns:
            return
        # randrange + index keeps the same _randbelow draw sequence
        # random.choice would make, so seeded traces stay byte-identical.
        index = self._rng.randrange(len(self._connections))
        conn = self._connections[index]
        boundary = conn.sender.data_target + self.rpc_bytes
        self._pending[index].append((boundary, now))
        conn.send(self.rpc_bytes)
        self.issued += 1
        self._engine.post(self._next_gap(), self._arrival)

    def latencies_ns(self) -> List[int]:
        """Completion times of all finished RPCs."""
        return [r.latency_ns for r in self.records]


class PingPongRpc:
    """Closed-loop message stream: send, wait for delivery, send again.

    Used for the latency micro-benchmarks: 150-byte RPCs with no competing
    traffic (§5.1.2) and the 10 KB RPCs of Figure 14.
    """

    def __init__(
        self,
        engine: Engine,
        connection: Connection,
        *,
        rpc_bytes: int,
        gap_ns: int = 0,
        pipeline: int = 1,
        max_rpcs: Optional[int] = None,
    ):
        if rpc_bytes <= 0:
            raise ValueError(f"rpc_bytes must be positive, got {rpc_bytes}")
        if pipeline < 1:
            raise ValueError(f"pipeline depth must be >= 1, got {pipeline}")
        self._engine = engine
        self._conn = connection
        self.rpc_bytes = rpc_bytes
        self.gap_ns = gap_ns
        #: Messages kept outstanding at once.  Depth 1 is strict ping-pong;
        #: deeper pipelines model a streamed RPC channel, where one stalled
        #: message delays the queue behind it (head-of-line blocking).
        self.pipeline = pipeline
        self.max_rpcs = max_rpcs
        self.records: List[RpcRecord] = []
        self._sent = 0
        self._outstanding: Deque[Tuple[int, int]] = deque()
        connection.receiver.on_bytes = self._on_bytes

    def start(self) -> None:
        """Fill the pipeline."""
        for _ in range(self.pipeline):
            self._send_next()

    def _send_next(self) -> None:
        if self.max_rpcs is not None and self._sent >= self.max_rpcs:
            return
        boundary = self._conn.sender.data_target + self.rpc_bytes
        self._outstanding.append((boundary, self._engine.now))
        self._conn.send(self.rpc_bytes)
        self._sent += 1

    def _on_bytes(self, watermark: int, now: int) -> None:
        completed = 0
        while self._outstanding and self._outstanding[0][0] <= watermark:
            boundary, started = self._outstanding.popleft()
            self.records.append(RpcRecord(self.rpc_bytes, started, now))
            completed += 1
        for _ in range(completed):
            if self.gap_ns > 0:
                self._engine.post(self.gap_ns, self._send_next)
            else:
                self._send_next()

    def latencies_ns(self) -> List[int]:
        """Completion times of all finished messages."""
        return [r.latency_ns for r in self.records]
