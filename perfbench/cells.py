"""The benchmark's three simulation workloads.

Each workload is built only from the simulator's public builders and entry
points.  Cell seed ``n`` seeds the experiment with its own seed plus ``n``,
so cell seed 0 is the experiment's seed and every other one is a fresh
draw.  Both ``clos_*`` workloads map ``n`` to the same cell, so the pair
faces the same fabric and the same offered traffic.

:func:`build` makes the topology, the connections and the traffic
generators (set-up).  The caller then runs the returned :class:`Cell`'s
engine from t=0 to ``end_ns`` (warm-up included) and reads its simulated
outputs and its layer counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.campaign.spec import derive_seed
from repro.core.config import JugglerConfig
from repro.core.juggler import JugglerGRO
from repro.core.standard_gro import StandardGRO
from repro.experiments.host_vs_fabric import HostFabricParams, LOAD_LEVELS
from repro.fabric.detector import DetectorConfig, ReorderDetector
from repro.fabric.routing import PerPacketRouting
from repro.fabric.topology import build_clos, build_netfpga_pair
from repro.harness.metrics import percentiles
from repro.nic.nic import NicConfig
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.time import MS, US
from repro.tcp.config import TcpConfig
from repro.tcp.connection import Connection
from repro.workloads.rpc import RpcWorkload

#: Simulated run length per workload, in ms.  The NetFPGA cell is the
#: whole fig13 cell (8 ms warm-up + 15 ms measurement).  The Clos cells
#: are the host_vs_fabric cell's 4 ms warm-up plus 2 ms of its measurement
#: window: the full 24 ms window costs 14-28 s of wall time, too long to
#: repeat within one benchmark run.
SIM_MS = {
    "netfpga_reorder": 23,
    "clos_spray_juggler": 6,
    "clos_spray_standard": 6,
}

#: The experiment seed each workload's ``--seed 0`` maps to.
DEFAULT_SEED = {
    "netfpga_reorder": 13,
    "clos_spray_juggler": 77,
    "clos_spray_standard": 77,
}


@dataclass
class Cell:
    """One built workload: the engine, the run length and its parts."""

    engine: Engine
    end_ns: int
    hosts: list
    links: list
    conns: List[Connection]
    small: Optional[RpcWorkload] = None
    large: Optional[RpcWorkload] = None

    def packets(self) -> int:
        """Packets the NIC rings handed to GRO, over every host."""
        return sum(q.delivered for h in self.hosts for q in h.nic.queues)

    def outputs(self) -> Dict[str, object]:
        """The simulated outputs the correctness check compares.

        Engine event and allocation counts are deliberately absent: an
        optimisation of the engine or the packet pool may change them
        without changing what the simulation computes.
        """
        gros = [g for h in self.hosts for g in h.gro_engines]
        out: Dict[str, object] = {
            "delivered_bytes": [c.delivered_bytes for c in self.conns],
            "gro_segments": sum(g.stats.segments for g in gros),
            "gro_mtus": sum(g.stats.batched_mtus for g in gros),
            "gro_ooo_segments": sum(g.stats.ooo_segments for g in gros),
            "tcp_ooo_segments": sum(c.receiver.ooo_segments
                                    for c in self.conns),
            "tcp_retx_packets": sum(c.sender.retransmitted_packets
                                    for c in self.conns),
            "tcp_acks": sum(c.receiver.acks_sent for c in self.conns),
        }
        if self.small is not None:
            small = [r.latency_ns for r in self.small.records]
            p50, p99 = percentiles(small, (50, 99))
            out["rpcs_completed"] = (len(self.small.records)
                                     + len(self.large.records))
            out["small_fct_p50_ns"] = round(p50, 3)
            out["small_fct_p99_ns"] = round(p99, 3)
        return out

    def counters(self) -> Dict[str, float]:
        """Exact per-layer work counters, read after the run."""
        queues = [q for h in self.hosts for q in h.nic.queues]
        gros = [q.gro for q in queues]
        link_stats = [l.stats for l in self.links]
        return {
            "pkts": self.packets(),
            "events": self.engine.events_processed,
            "link_packets": sum(s.packets for s in link_stats),
            "link_drops": sum(s.drops for s in link_stats),
            "polls": sum(q.polls for q in queues),
            "ring_drops": sum(q.dropped for q in queues),
            "gro_segments": sum(g.stats.segments for g in gros),
            "gro_mtus": sum(g.stats.batched_mtus for g in gros),
            "tcp_segments": sum(c.receiver.segments_received
                                + c.sender.acks_received for c in self.conns),
            "tcp_ooo_segments": sum(c.receiver.ooo_segments
                                    for c in self.conns),
            "tcp_retx_packets": sum(c.sender.retransmitted_packets
                                    for c in self.conns),
            "rpcs_completed": (len(self.small.records) + len(self.large.records)
                               if self.small is not None else 0),
        }


def build_netfpga_reorder(seed: int) -> Cell:
    """The fig13 cell: τ=500 µs, ofo_timeout=600 µs, one bulk flow."""
    engine = Engine()
    rng = RngRegistry(seed).stream("fabric")
    config = JugglerConfig(inseq_timeout=52 * US, ofo_timeout=600 * US)
    bed = build_netfpga_pair(
        engine,
        rng,
        lambda deliver: JugglerGRO(deliver, config),
        rate_gbps=10.0,
        reorder_delay_ns=500 * US,
        nic_config=NicConfig(coalesce_ns=125 * US),
    )
    tcp = TcpConfig(init_cwnd=1 << 20, rx_buffer=8 << 20)
    conn = Connection(engine, bed.sender, bed.receiver, 1000, 80, tcp)
    conn.send(1 << 40)
    links = [bed.sender_link, bed.switch.fast_queue, bed.switch.slow_queue,
             bed.reverse_link]
    return Cell(engine, SIM_MS["netfpga_reorder"] * MS,
                [bed.sender, bed.receiver], links, [conn])


def _clos(seed: int, make_gro: Callable) -> Cell:
    """The host_vs_fabric cell: per-packet spraying, load 3, no fault."""
    params = HostFabricParams()
    load = 3
    cell_seed = derive_seed(seed, "host_vs_fabric", f"{load}:0")
    engine = Engine()
    rngs = RngRegistry(cell_seed)
    detector_cfg = DetectorConfig(
        memory_budget_bytes=params.detector_budget_bytes,
        heavy_threshold_bytes=params.detector_heavy_kb * 1024,
    )
    net = build_clos(
        engine,
        make_gro,
        lambda: PerPacketRouting(rngs.stream("spray")),
        n_tors=params.n_tors,
        hosts_per_tor=params.hosts_per_tor,
        n_spines=params.n_spines,
        host_rate_gbps=params.fabric_gbps,
        uplink_rate_gbps=params.fabric_gbps,
        nic_config=NicConfig(num_queues=1, coalesce_ns=30_000,
                             coalesce_frames=32),
        queue_capacity_bytes=params.queue_capacity_kb * 1024,
        detector_factory=lambda: ReorderDetector(detector_cfg),
    )
    per_tor = params.hosts_per_tor
    servers = net.hosts[:per_tor]
    clients = net.hosts[per_tor:2 * per_tor]
    total_load = params.n_spines * params.fabric_gbps * LOAD_LEVELS[load] / 100
    large_load = max(total_load - params.small_load_gbps, 0.1)
    tcp = TcpConfig(rx_buffer=4 << 20)

    def all_to_all(kind_servers, kind_clients, base_port):
        return [Connection(engine, server, client,
                           base_port + (si * 16 + ci) * 8 + s, 80, tcp)
                for si, server in enumerate(kind_servers)
                for ci, client in enumerate(kind_clients)
                for s in range(params.sessions_per_pair)]

    large_conns = all_to_all(servers[:params.large_pairs],
                             clients[:params.large_pairs], 30_000)
    pairs = slice(params.large_pairs, params.large_pairs + params.small_pairs)
    small_conns = all_to_all(servers[pairs], clients[pairs], 40_000)
    large = RpcWorkload(engine, rngs.stream("large"), large_conns,
                        rpc_bytes=params.large_rpc_bytes, load_gbps=large_load)
    small = RpcWorkload(engine, rngs.stream("small"), small_conns,
                        rpc_bytes=params.small_rpc_bytes,
                        load_gbps=params.small_load_gbps)
    large.start()
    small.start()
    links = [l for row in net.uplinks + net.downlinks for l in row]
    links += [l for tor in net.tors for l in tor.direct_links()]
    links += [h.tx for h in net.hosts]
    return Cell(engine, SIM_MS["clos_spray_juggler"] * MS, net.hosts, links,
                large_conns + small_conns, small=small, large=large)


def build_clos_spray_juggler(seed: int) -> Cell:
    """Clos cell with JugglerGRO (inseq 13 µs, ofo 150 µs) at every host."""
    params = HostFabricParams()
    config = JugglerConfig(inseq_timeout=params.inseq_timeout_us * US,
                           ofo_timeout=params.ofo_timeout_us * US)
    return _clos(seed, lambda deliver: JugglerGRO(deliver, config))


def build_clos_spray_standard(seed: int) -> Cell:
    """The same Clos cell and seed with StandardGRO at every host."""
    return _clos(seed, lambda deliver: StandardGRO(deliver))


_BUILDERS = {
    "netfpga_reorder": build_netfpga_reorder,
    "clos_spray_juggler": build_clos_spray_juggler,
    "clos_spray_standard": build_clos_spray_standard,
}


def build(name: str, seed: int) -> Cell:
    """Build workload ``name`` for cell seed ``seed``."""
    return _BUILDERS[name](DEFAULT_SEED[name] + seed)
