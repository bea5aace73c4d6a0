"""Property-based conservation laws for the fabric."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.fabric import QueuedLink, Switch, EcmpRouting
from repro.net import FiveTuple, MSS, Packet
from repro.net.constants import WIRE_OVERHEAD, transmit_time_ns
from repro.sim import Engine


class Sink:
    def __init__(self):
        self.packets = []

    def receive(self, packet):
        self.packets.append(packet)


@given(st.lists(st.tuples(st.integers(0, 100), st.integers(0, 1),
                          st.integers(100, MSS)),
                min_size=1, max_size=60))
@settings(max_examples=100, deadline=None)
def test_uncapped_link_conserves_packets(items):
    """Without a capacity, every enqueued packet is eventually delivered,
    and per-priority order is preserved."""
    engine = Engine()
    sink = Sink()
    link = QueuedLink(engine, 10.0, sink, priorities=2)
    sent = []
    for seq, priority, size in items:
        packet = Packet(FiveTuple(1, 2, 1000, 80), seq * MSS, size,
                        priority=priority)
        sent.append(packet)
        link.enqueue(packet)
    engine.run()
    assert len(sink.packets) == len(sent)
    assert link.stats.drops == 0
    assert link.queued_bytes == 0
    for priority in (0, 1):
        sent_ids = [p.pid for p in sent if p.priority == priority]
        recv_ids = [p.pid for p in sink.packets if p.priority == priority]
        assert recv_ids == sent_ids


@given(st.lists(st.integers(0, 1), min_size=1, max_size=80),
       st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_capped_link_delivered_plus_dropped_is_total(priorities, cap_pkts):
    engine = Engine()
    sink = Sink()
    wire = Packet(FiveTuple(1, 2, 1, 2), 0, MSS).wire_len
    link = QueuedLink(engine, 10.0, sink, priorities=2,
                      capacity_bytes=cap_pkts * wire)
    for i, priority in enumerate(priorities):
        link.enqueue(Packet(FiveTuple(1, 2, 1000, 80), i * MSS, MSS,
                            priority=priority))
    engine.run()
    assert len(sink.packets) + link.stats.drops == len(priorities)


@given(st.lists(st.tuples(st.integers(0, 63), st.integers(0, 3)),
                min_size=1, max_size=100))
@settings(max_examples=100, deadline=None)
def test_switch_routes_every_packet_somewhere(flows):
    """Direct + uplink deliveries + unroutable = everything received."""
    engine = Engine()
    local = Sink()
    ups = [Sink(), Sink()]
    switch = Switch(policy=EcmpRouting())
    switch.add_route(7, QueuedLink(engine, 10.0, local))
    for up in ups:
        switch.add_uplink(QueuedLink(engine, 10.0, up))
    n = len(flows)
    for src, dst in flows:
        switch.receive(Packet(FiveTuple(src, dst, 1000, 80), 0, MSS))
    engine.run()
    delivered = len(local.packets) + sum(len(u.packets) for u in ups)
    assert delivered + switch.unroutable == n
    assert all(p.flow.dst == 7 for p in local.packets)


@given(st.lists(st.tuples(st.integers(0, 20_000), st.integers(0, MSS)),
                min_size=1, max_size=60),
       st.sampled_from([10.0, 12.5, 40.0, 100.0]),
       st.integers(0, 5_000))
@settings(max_examples=200, deadline=None)
def test_single_queue_link_matches_analytic_schedule(arrivals, rate, prop):
    """Deliveries and stats equal the FIFO schedule computed directly:
    packet i starts at max(arrival_i, done_{i-1}), is delivered
    transmit_time_ns + prop later, and the high-water mark is the largest
    backlog an arrival leaves: the arriving packet itself plus every
    earlier one not yet on the wire."""
    arrivals = sorted(arrivals, key=lambda a: a[0])
    engine = Engine()
    delivered = []

    class TimedSink:
        def receive(self, packet):
            delivered.append((engine.now, packet))

    link = QueuedLink(engine, rate, TimedSink(), prop_delay_ns=prop)
    packets = []
    for i, (at, payload) in enumerate(arrivals):
        packet = Packet(FiveTuple(1, 2, 1000, 80), i * MSS, payload)
        packets.append(packet)
        engine.schedule_at(at, link.enqueue, packet)
    engine.run()

    starts, expected, idle = [], [], []
    done = -1
    for at, payload in arrivals:
        idle.append(done < at)
        start = max(at, done)
        done = start + transmit_time_ns(payload, rate)
        starts.append(start)
        expected.append(done + prop)
    assert [p for _, p in delivered] == packets
    assert [t for t, _ in delivered] == expected

    # Arrivals were filed before the run, so at an instant they share with
    # a transmit completion they fire first: a packet that would start then
    # is still queued unless it went straight onto an idle wire.
    wire = [payload + WIRE_OVERHEAD for _, payload in arrivals]
    high_water = 0
    for i, (at, _) in enumerate(arrivals):
        backlog = sum(
            wire[j] for j in range(i + 1)
            if j == i or starts[j] > at or (starts[j] == at and not idle[j]))
        high_water = max(high_water, backlog)
    stats = link.stats
    assert stats.packets == len(arrivals)
    assert stats.bytes == sum(wire)
    assert stats.busy_ns == sum(transmit_time_ns(payload, rate)
                                for _, payload in arrivals)
    assert stats.max_queue_bytes == high_water
    assert stats.drops == 0
