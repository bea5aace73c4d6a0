"""Drop accounting: every packet a drop site is offered is either
forwarded or counted once by that site's drop counter.

The sites are the places the simulation destroys a packet mid-flight:
link tail-drop, ring overflow, checksum failure and the loss, burst-loss
and blackhole injectors.  A dropped packet is counted and let go; nothing
else is owed for it.
"""

import random

from repro.core.standard_gro import StandardGRO
from repro.fabric.link import QueuedLink
from repro.faults.injectors import (
    BlackholeInjector,
    BurstLossInjector,
    LossInjector,
)
from repro.net import MSS, FiveTuple, Packet
from repro.nic.rxqueue import RxQueue
from repro.sim.engine import Engine

FLOW = FiveTuple(1, 2, 1000, 80)


class Counter:
    """A sink that counts what reaches it."""

    def __init__(self):
        self.received = 0

    def receive(self, packet):
        self.received += 1


def test_loss_injector_accounts_every_packet():
    terminal = Counter()
    injector = LossInjector(terminal, random.Random(3), 0.5)
    for i in range(1000):
        injector.receive(Packet(FLOW, i * MSS, MSS))
    assert injector.dropped > 0
    assert terminal.received == injector.passed
    assert injector.passed + injector.dropped == 1000


def test_burst_loss_and_blackhole_account_every_packet():
    terminal = Counter()
    blackhole = BlackholeInjector(terminal, random.Random(0))
    burst = BurstLossInjector(blackhole, random.Random(1), p_enter=0.1,
                              p_exit=0.3, p_loss_bad=0.8)
    blackhole.active = False
    for i in range(500):
        burst.receive(Packet(FLOW, i * MSS, MSS))
    offered_before = burst.passed
    blackhole.active = True  # blackhole the tail of the stream
    for i in range(500, 600):
        burst.receive(Packet(FLOW, i * MSS, MSS))
    assert burst.dropped > 0
    assert burst.passed + burst.dropped == 600
    # The blackhole swallows everything the burst injector forwarded to
    # it while active, and nothing before.
    assert blackhole.dropped == burst.passed - offered_before > 0
    assert terminal.received == offered_before
    assert terminal.received + blackhole.dropped == burst.passed


def test_link_tail_drop_accounts_every_packet():
    engine = Engine()
    terminal = Counter()
    # Tiny per-queue buffer: most of a synchronous burst tail-drops.
    link = QueuedLink(engine, 10.0, terminal, capacity_bytes=4_000)
    for i in range(100):
        link.enqueue(Packet(FLOW, i * MSS, MSS))
    engine.run_until(10_000_000)
    assert link.stats.drops > 0
    assert terminal.received + link.stats.drops == 100


def test_ring_overflow_and_checksum_drops_account_every_packet():
    engine = Engine()
    delivered = []
    gro = StandardGRO(delivered.append)
    rxq = RxQueue(engine, gro, coalesce_ns=1000, ring_size=8)
    # 8 fill the ring, 4 overflow.
    for i in range(12):
        rxq.enqueue(Packet(FLOW, i * MSS, MSS))
    assert rxq.dropped == 4
    assert rxq.backlog == 8
    engine.run_until(1_000_000)  # poll drains the ring into GRO
    # Corrupt frames die at checksum verification at the (now-empty) ring.
    corrupt = Packet(FLOW, 999 * MSS, MSS)
    corrupt.corrupt = True
    rxq.enqueue(corrupt)
    assert rxq.checksum_drops == 1
    rxq.drain()
    assert rxq.delivered == 8
    assert sum(s.mtus for s in delivered) == 8
    assert rxq.delivered + rxq.dropped + rxq.checksum_drops == 13
