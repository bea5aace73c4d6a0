"""QueuedLink: serialisation, strict priority, capacity, ECN marking."""

import random

import pytest

from repro.fabric import QueuedLink
from repro.faults.injectors import LossInjector
from repro.net import FiveTuple, MSS, Packet
from repro.net.constants import PRIORITY_HIGH, PRIORITY_LOW, transmit_time_ns
from repro.sim import Engine

FLOW = FiveTuple(1, 2, 1000, 80)


class Sink:
    def __init__(self):
        self.packets = []

    def receive(self, packet):
        self.packets.append(packet)


def pkt(seq=0, size=MSS, priority=PRIORITY_LOW):
    return Packet(FLOW, seq, size, priority=priority)


def test_delivers_after_serialisation_and_propagation():
    engine = Engine()
    sink = Sink()
    link = QueuedLink(engine, 10.0, sink, prop_delay_ns=500)
    link.enqueue(pkt())
    expected = transmit_time_ns(MSS, 10.0) + 500
    engine.run_until(expected - 1)
    assert sink.packets == []
    engine.run_until(expected)
    assert len(sink.packets) == 1


def test_fifo_order_preserved():
    engine = Engine()
    sink = Sink()
    link = QueuedLink(engine, 10.0, sink)
    packets = [pkt(i * MSS) for i in range(5)]
    for p in packets:
        link.enqueue(p)
    engine.run()
    assert [p.seq for p in sink.packets] == [i * MSS for i in range(5)]


def test_rate_sets_throughput():
    engine = Engine()
    sink = Sink()
    link = QueuedLink(engine, 10.0, sink, prop_delay_ns=0)
    for i in range(100):
        link.enqueue(pkt(i * MSS))
    engine.run()
    gbps = sum(p.wire_len for p in sink.packets) * 8 / engine.now
    assert gbps == pytest.approx(10.0, rel=0.01)


def test_strict_priority_preemption_between_packets():
    engine = Engine()
    sink = Sink()
    link = QueuedLink(engine, 10.0, sink, priorities=2, prop_delay_ns=0)
    for i in range(3):
        link.enqueue(pkt(i * MSS, priority=PRIORITY_LOW))
    link.enqueue(pkt(99 * MSS, priority=PRIORITY_HIGH))
    engine.run()
    # The high-priority packet overtakes the queued low ones (but not the
    # packet already on the wire).
    assert [p.seq for p in sink.packets][:2] == [0, 99 * MSS]


def test_capacity_tail_drop_per_priority():
    engine = Engine()
    sink = Sink()
    wire = pkt().wire_len
    link = QueuedLink(engine, 10.0, sink, priorities=2,
                      capacity_bytes=2 * wire, prop_delay_ns=0)
    # One goes to the transmitter; two fit in the low queue; rest drop.
    for i in range(6):
        link.enqueue(pkt(i * MSS, priority=PRIORITY_LOW))
    assert link.stats.drops == 3
    # The high-priority queue has its own budget.
    link.enqueue(pkt(99 * MSS, priority=PRIORITY_HIGH))
    assert link.stats.drops == 3


def test_ecn_marks_when_queue_deep():
    engine = Engine()
    sink = Sink()
    wire = pkt().wire_len
    link = QueuedLink(engine, 10.0, sink, ecn_threshold_bytes=2 * wire,
                      prop_delay_ns=0)
    for i in range(6):
        link.enqueue(pkt(i * MSS))
    engine.run()
    marked = [p for p in sink.packets if p.ce]
    assert len(marked) == link.stats.ce_marked
    assert 0 < len(marked) < 6


def test_ecn_never_marks_pure_acks():
    engine = Engine()
    sink = Sink()
    link = QueuedLink(engine, 10.0, sink, ecn_threshold_bytes=0,
                      prop_delay_ns=0)
    link.enqueue(pkt())
    ack = Packet(FLOW, 0, 0)
    link.enqueue(ack)
    engine.run()
    assert not ack.ce


def test_no_marking_when_disabled():
    engine = Engine()
    sink = Sink()
    link = QueuedLink(engine, 10.0, sink)
    for i in range(20):
        link.enqueue(pkt(i * MSS))
    engine.run()
    assert link.stats.ce_marked == 0


def test_queue_depth_accounting():
    engine = Engine()
    sink = Sink()
    link = QueuedLink(engine, 10.0, sink, priorities=2)
    link.enqueue(pkt(0, priority=PRIORITY_LOW))  # goes to wire
    link.enqueue(pkt(MSS, priority=PRIORITY_LOW))
    link.enqueue(pkt(2 * MSS, priority=PRIORITY_HIGH))
    assert link.queued_packets == 2
    assert link.queue_depth(PRIORITY_HIGH) == 1
    assert link.queue_depth(PRIORITY_LOW) == 1
    engine.run()
    assert link.queued_packets == 0
    assert link.queued_bytes == 0


def test_stats_utilization():
    engine = Engine()
    sink = Sink()
    link = QueuedLink(engine, 10.0, sink, prop_delay_ns=0)
    link.enqueue(pkt())
    engine.run()
    assert link.stats.utilization(engine.now) == pytest.approx(1.0)


def test_max_queue_bytes_high_water_mark():
    engine = Engine()
    link = QueuedLink(engine, 10.0, Sink())
    for i in range(5):
        link.enqueue(pkt(i * MSS))
    assert link.stats.max_queue_bytes == 4 * pkt().wire_len


def test_sink_swap_redirects_the_packet_being_serialised():
    """The sink is read when serialisation ends: a packet already
    propagating keeps its sink, the one on the wire goes to the new one."""
    engine = Engine()
    old, new = Sink(), Sink()
    link = QueuedLink(engine, 10.0, old, prop_delay_ns=5_000)
    first, second = pkt(0), pkt(MSS)
    link.enqueue(first)
    link.enqueue(second)
    tx = transmit_time_ns(MSS, 10.0)
    engine.run_until(tx + 1)  # first propagating, second serialising
    assert old.packets == [] and new.packets == []
    link.sink = new
    engine.run()
    assert old.packets == [first]
    assert new.packets == [second]


def test_sink_swap_to_fault_injector_catches_wire_and_queue():
    """Fault insertion wraps the old sink while one packet is serialising
    and others wait: every one of them goes through the injector."""
    engine = Engine()
    old = Sink()
    link = QueuedLink(engine, 10.0, old, prop_delay_ns=500)
    packets = [pkt(i * MSS) for i in range(4)]
    for p in packets:
        link.enqueue(p)
    engine.run_until(transmit_time_ns(MSS, 10.0) // 2)
    assert link.queued_packets == 3  # the first is on the wire
    injector = LossInjector(old, random.Random(0), p=0.0)
    link.sink = injector
    assert link.sink is injector
    engine.run()
    assert injector.passed == 4
    assert old.packets == packets


def test_rate_is_read_only():
    # Serialisation times are cached per link at its construction rate.
    link = QueuedLink(Engine(), 10.0, Sink())
    with pytest.raises(AttributeError):
        link.rate_gbps = 40.0


def test_invalid_parameters():
    with pytest.raises(ValueError):
        QueuedLink(Engine(), 0, Sink())
    with pytest.raises(ValueError):
        QueuedLink(Engine(), 10.0, Sink(), priorities=0)
