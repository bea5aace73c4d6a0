"""Synthetic background load.

The CPU experiments (§5.1.1) "generate some background traffic such that the
average load on the sending ToR uplinks is 50%".  Simulating full TCP stacks
for that filler would dominate runtime without changing what it does to the
measured flows — occupy queues and perturb per-path delays.  A Poisson
MTU-packet stream injected at the ToR, spread across many synthetic flows
(so ECMP balances it) and routed to a discard host, produces the same
queueing process.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.fabric.link import PacketSink
from repro.net.addr import FiveTuple
from repro.net.constants import MSS, wire_bytes
from repro.net.packet import Packet
from repro.sim.engine import Engine


class DiscardSink:
    """A packet sink that counts and drops (the background's "receiver")."""

    def __init__(self) -> None:
        self.packets = 0
        self.bytes = 0

    def receive(self, packet: Packet) -> None:
        """Count and discard."""
        self.packets += 1
        self.bytes += packet.wire_len


class PoissonPacketSource:
    """Open-loop MTU packets at a target offered load, over many flows."""

    def __init__(
        self,
        engine: Engine,
        rng: random.Random,
        sink: PacketSink,
        *,
        load_gbps: float,
        src: int,
        dst: int,
        num_flows: int = 32,
        stop_at_ns: Optional[int] = None,
    ):
        if load_gbps <= 0:
            raise ValueError(f"load must be positive, got {load_gbps}")
        if num_flows < 1:
            raise ValueError(f"need at least one flow, got {num_flows}")
        self._engine = engine
        self._rng = rng
        self._sink = sink
        self.load_gbps = load_gbps
        self.stop_at_ns = stop_at_ns
        #: ns between packets so wire_bits/interarrival == load.
        # det: allow(float-ns) -- rate parameter for expovariate, not a timestamp; drawn gaps are rounded to integer ns in _next_gap
        self.mean_interarrival_ns = wire_bytes(MSS) * 8 / load_gbps
        self._flows: List[FiveTuple] = [
            FiveTuple(src, dst, 20000 + i, 20000) for i in range(num_flows)
        ]
        self._next_seq: List[int] = [0] * num_flows
        self.packets_sent = 0

    def start(self) -> None:
        """Begin emitting."""
        self._engine.post(self._next_gap(), self._emit)

    def _next_gap(self) -> int:
        return max(1, round(self._rng.expovariate(1.0 / self.mean_interarrival_ns)))

    def _emit(self) -> None:
        now = self._engine.now
        if self.stop_at_ns is not None and now >= self.stop_at_ns:
            return
        index = self._rng.randrange(len(self._flows))
        packet = Packet(
            self._flows[index],
            self._next_seq[index],
            MSS,
            sent_at=now,
        )
        self._next_seq[index] += MSS
        self._sink.receive(packet)
        self.packets_sent += 1
        self._engine.post(self._next_gap(), self._emit)
