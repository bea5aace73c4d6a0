"""A multi-queue NIC: pluggable steering onto per-core GRO contexts."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.analysis import runtime as sanitize_runtime
from repro.core.base import DeliverFn, GroEngine
from repro.net.packet import Packet
from repro.nic.rxqueue import RxQueue
from repro.sim.engine import Engine
from repro.steer.coreset import CoreSet
from repro.steer.policy import RssSteering, SteeringPolicy
from repro.trace import runtime as trace_runtime

#: Builds one GRO engine per RX queue; receives that queue's deliver fn.
GroFactory = Callable[[DeliverFn], GroEngine]


@dataclass(frozen=True)
class NicConfig:
    """Receive-side NIC parameters."""

    #: Number of RX queues ("NICs today hash one flow to one receive
    #: queue", §5.3.1 — more queues spread flows, not packets).
    num_queues: int = 1
    #: Interrupt coalescing period in ns (125 µs in the paper's testbed).
    coalesce_ns: int = 125_000
    #: Frame-count trigger: interrupt fires early once this many frames are
    #: pending (0 = time-only coalescing).  At line rate a frames trigger
    #: sets the NAPI poll cadence, hence the batching floor of Figure 12.
    coalesce_frames: int = 0
    #: Ring buffer capacity per queue, in packets.
    ring_size: int = 4096

    def __post_init__(self) -> None:
        if self.num_queues < 1:
            raise ValueError(f"need at least one RX queue, got {self.num_queues}")
        if self.coalesce_ns < 0:
            raise ValueError(f"coalesce_ns must be >= 0, got {self.coalesce_ns}")
        if self.ring_size < 1:
            raise ValueError(f"ring_size must be >= 1, got {self.ring_size}")


class Nic:
    """Steering front-end over ``num_queues`` independent receive cores.

    The demux decision is delegated to a :class:`SteeringPolicy` — plain
    RSS by default, which preserves the historical behaviour bit-for-bit:
    all packets of one five-tuple land on one queue, so per-queue GRO state
    never sees cross-queue interleaving (§4: "different RX queues operate
    independently and have their private data structures").  Stateful
    policies (Flow Director) may *break* that invariant mid-flow, which is
    precisely the pathology ``experiments/fdir_reordering`` measures.
    """

    def __init__(
        self,
        engine: Engine,
        deliver: DeliverFn,
        gro_factory: GroFactory,
        config: Optional[NicConfig] = None,
        name: str = "nic",
        *,
        steering: Optional[SteeringPolicy] = None,
    ):
        self.config = config if config is not None else NicConfig()
        self.name = name
        self._engine = engine
        self.tracer = trace_runtime.current()
        self._osan = sanitize_runtime.current_osan()
        prefix = None
        if self.tracer is not None:
            prefix = f"steer{self.tracer.component_index('steer')}"
        self.cores = CoreSet(
            engine,
            deliver,
            gro_factory,
            num_cores=self.config.num_queues,
            coalesce_ns=self.config.coalesce_ns,
            coalesce_frames=self.config.coalesce_frames,
            ring_size=self.config.ring_size,
            name=name,
            tracer=self.tracer,
            metrics_prefix=prefix,
        )
        self.queues: List[RxQueue] = self.cores.queues
        self.steering = steering if steering is not None else RssSteering()
        self.steering.bind(self.config.num_queues, engine=engine,
                           tracer=self.tracer, metrics_prefix=prefix)
        # Per-wire-packet path, pinned as an instance attribute: the policy
        # supplies the whole demux over our queues, so plain RSS costs one
        # Python call per packet (benchmarks/test_steer_overhead.py holds
        # this at parity with the pre-policy inline demux).  It is this
        # NIC's receive entry, so it carries that method's name and module
        # (tracebacks and per-layer profiles report it as NIC work).
        receive = self.steering.demux(self.queues)
        receive.__module__ = Nic.receive.__module__
        receive.__qualname__ = Nic.receive.__qualname__
        self.receive = receive  # type: ignore[method-assign]

    def queue_for(self, packet: Packet) -> RxQueue:
        """The RX queue this packet's flow is steered to (pure probe)."""
        return self.queues[self.steering.current_queue(packet.flow)]

    def receive(self, packet: Packet) -> None:
        """Entry point from the wire (data path: may tick the policy)."""
        self.queues[self.steering.queue_index(packet.flow)].enqueue(packet)

    @property
    def dropped(self) -> int:
        """Total ring-overflow drops across queues."""
        return sum(q.dropped for q in self.queues)

    def drain(self) -> None:
        """Teardown: force-process all rings and flush all GRO state.

        When tracing is on, also reconciles final per-queue poll/drop
        counters into the metrics registry — multi-queue runs previously
        reported only the NIC-level ``dropped`` aggregate, losing which
        queue overflowed.

        This is the ``nic.drain`` rendezvous point of the shard isolation
        contract (docs/shardcheck.md): per-core state is handed back to
        the ambient (unowned) domain so post-run reporting may read it
        freely.
        """
        for queue in self.queues:
            queue.drain()
        if self.tracer is not None:
            self.cores.reconcile(self.tracer.metrics)
        if self._osan is not None:
            now = self._engine.now
            for queue in self.queues:
                if queue.owner_domain is None:
                    continue
                table = getattr(queue.gro, "table", None)
                if table is not None:
                    self._osan.transfer(table, None, point="nic.drain",
                                        now=now)
                self._osan.transfer(queue, None, point="nic.drain",
                                    now=now)
