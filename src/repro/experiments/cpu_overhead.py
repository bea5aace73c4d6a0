"""Figures 9 and 10: CPU overhead of Juggler vs the vanilla kernel.

Setup (§5.1.1): a two-stage Clos; senders rate-limited to 20 Gb/s aggregate
into a single RX queue at the receiver; background traffic loads the sending
ToR's uplinks to ~50%; ECMP gives the no-reordering baseline, per-packet
spraying creates reordering.  Four scenarios — {1 flow, 256 flows} ×
{ECMP, per-packet} — each run under both kernels.

Paper results this experiment reproduces:

* without reordering, Juggler adds no CPU over vanilla;
* with reordering, the vanilla receiver's application core saturates
  (~100%) and it "falls short of reaching 20Gb/s", while Juggler sustains
  the target using < 10% additional CPU;
* vanilla under reordering sees ~15× more segments (≈40% out of order) and
  ~15× more ACKs (§5.1.1's prose numbers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.config import JugglerConfig
from repro.experiments.common import HostCpu, merged_stats
from repro.fabric.routing import EcmpRouting, PerPacketRouting
from repro.fabric.topology import build_clos
from repro.harness.experiment import GroKind, make_gro_factory
from repro.harness.reporting import format_table
from repro.nic.nic import NicConfig
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.time import MS, US
from repro.tcp.config import TcpConfig
from repro.tcp.connection import Connection
from repro.workloads.background import DiscardSink, PoissonPacketSource


@dataclass(frozen=True)
class CpuOverheadParams:
    """One scenario's configuration."""

    num_flows: int = 1
    reordering: bool = True  # per-packet spraying vs ECMP
    kind: GroKind = GroKind.JUGGLER
    target_gbps: float = 20.0
    uplink_gbps: float = 40.0
    n_spines: int = 2
    background_gbps: float = 20.0  # brings uplink load to ~50%
    inseq_timeout_us: int = 13  # 40G rule of thumb (§5.2.1)
    ofo_timeout_us: int = 100
    warmup_ms: int = 10
    measure_ms: int = 20
    seed: int = 9


@dataclass
class CpuOverheadResult:
    """One scenario's measurements."""

    params: CpuOverheadParams
    throughput_gbps: float = 0.0
    rx_core_pct: float = 0.0
    app_core_pct: float = 0.0
    batching_extent: float = 0.0
    segments: int = 0
    ooo_segment_fraction: float = 0.0
    acks_sent: int = 0

    @property
    def throughput_pct_of_target(self) -> float:
        """Throughput as % of the rate-limited target."""
        return 100.0 * self.throughput_gbps / self.params.target_gbps


def run_scenario(params: CpuOverheadParams) -> CpuOverheadResult:
    """Run one {flows, reordering, kernel} cell."""
    engine = Engine()
    rngs = RngRegistry(params.seed)
    cpu = HostCpu(engine)
    config = JugglerConfig(
        inseq_timeout=params.inseq_timeout_us * US,
        ofo_timeout=params.ofo_timeout_us * US,
    )
    gro_factory = make_gro_factory(params.kind, config, cpu.accountant)

    if params.reordering:
        def policy_factory():
            return PerPacketRouting(rngs.stream("spray"))
    else:
        def policy_factory():
            return EcmpRouting()

    # ToR 0 hosts the senders; ToR 1 hosts the receiver and the background
    # sink.  All measured flows aim at one receiver host => one RX queue.
    net = build_clos(
        engine,
        gro_factory,
        policy_factory,
        n_tors=2,
        hosts_per_tor=max(2, params.num_flows if params.num_flows <= 8 else 8),
        n_spines=params.n_spines,
        host_rate_gbps=params.uplink_gbps,
        uplink_rate_gbps=params.uplink_gbps,
        nic_config=NicConfig(num_queues=1, coalesce_frames=32),
    )
    hosts_per_tor = len(net.hosts) // 2
    senders = net.hosts[:hosts_per_tor]
    receiver = net.hosts[hosts_per_tor]
    sink_host = net.hosts[hosts_per_tor + 1]
    cpu.attach(receiver)

    per_flow_gbps = params.target_gbps / params.num_flows
    tcp = TcpConfig(init_cwnd=1 << 19, rx_buffer=4 << 20)
    start_rng = rngs.stream("flow-start")
    # Stagger flow starts across one pacing period so the aggregate is
    # smooth from t=0 (flows in the testbed were long-running, not
    # synchronised).
    burst_period_ns = max(1, round(64 * 1024 * 8 / per_flow_gbps))
    connections: List[Connection] = []
    for i in range(params.num_flows):
        src = senders[i % len(senders)]
        conn = Connection(
            engine, src, receiver, 10_000 + i, 80, tcp,
            pacing_gbps=per_flow_gbps,
        )
        engine.schedule(start_rng.randrange(burst_period_ns),
                        conn.send, 1 << 40)
        connections.append(conn)

    # Background load on the sending ToR's uplinks, routed to a discard
    # host under the receiving ToR (its own downlink, so it does not queue
    # behind the measured flows at the receiver's port).
    discard = DiscardSink()
    from repro.fabric.link import QueuedLink

    bg_dst = sink_host.host_id + 1_000_000  # synthetic id, never a real host
    net.tors[1].add_route(
        bg_dst,
        QueuedLink(engine, params.uplink_gbps, discard, name="bg-sink"),
    )
    for s, spine in enumerate(net.spines):
        spine.add_route(bg_dst, net.downlinks[s][1])
    background = PoissonPacketSource(
        engine,
        rngs.stream("background"),
        net.tors[0],
        load_gbps=params.background_gbps,
        src=99,
        dst=sink_host.host_id + 1_000_000,
    )
    background.start()

    engine.run_until(params.warmup_ms * MS)
    engines = receiver.gro_engines
    before = merged_stats(engines)
    delivered_before = sum(c.delivered_bytes for c in connections)
    acks_before = sum(c.receiver.acks_sent for c in connections)
    cpu.mark(engine.now)

    engine.run_until((params.warmup_ms + params.measure_ms) * MS)
    after = merged_stats(engines)
    window = params.measure_ms * MS
    delivered = sum(c.delivered_bytes for c in connections) - delivered_before

    segments = after.segments - before.segments
    mtus = after.batched_mtus - before.batched_mtus
    ooo = after.ooo_segments - before.ooo_segments
    return CpuOverheadResult(
        params=params,
        throughput_gbps=delivered * 8 / window,
        rx_core_pct=100.0 * cpu.rx_utilization(engine.now),
        app_core_pct=100.0 * cpu.app_utilization(engine.now),
        batching_extent=(mtus / segments) if segments else 0.0,
        segments=segments,
        ooo_segment_fraction=(ooo / segments) if segments else 0.0,
        acks_sent=sum(c.receiver.acks_sent for c in connections) - acks_before,
    )


def run_figure(num_flows: int,
               base: CpuOverheadParams = CpuOverheadParams()) -> List[CpuOverheadResult]:
    """All four bars of Figure 9 (num_flows=1) or Figure 10 (256)."""
    results = []
    for reordering in (False, True):
        for kind in (GroKind.VANILLA, GroKind.JUGGLER):
            params = CpuOverheadParams(
                num_flows=num_flows,
                reordering=reordering,
                kind=kind,
                target_gbps=base.target_gbps,
                uplink_gbps=base.uplink_gbps,
                n_spines=base.n_spines,
                background_gbps=base.background_gbps,
                inseq_timeout_us=base.inseq_timeout_us,
                ofo_timeout_us=base.ofo_timeout_us,
                warmup_ms=base.warmup_ms,
                measure_ms=base.measure_ms,
                seed=base.seed,
            )
            results.append(run_scenario(params))
    return results


def render(results: List[CpuOverheadResult]) -> str:
    """The figure's bars as one table."""
    rows = [
        (
            r.params.num_flows,
            "per-packet" if r.params.reordering else "ecmp",
            r.params.kind.value,
            round(r.throughput_pct_of_target, 1),
            round(r.rx_core_pct, 1),
            round(min(r.app_core_pct, 100.0), 1),
            round(r.batching_extent, 1),
            round(r.ooo_segment_fraction, 3),
            r.acks_sent,
        )
        for r in results
    ]
    return format_table(
        ["flows", "routing", "kernel", "tput_pct_target", "rx_core_pct",
         "app_core_pct", "batching", "ooo_frac", "acks"],
        rows,
    )


if __name__ == "__main__":
    print("Figure 9 (single flow):")
    print(render(run_figure(1)))
    print()
    print("Figure 10 (256 flows):")
    print(render(run_figure(256)))
