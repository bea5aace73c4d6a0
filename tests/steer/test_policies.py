"""Steering policy contract: binding, stability, balance, fallbacks."""

import pytest

from repro.net import FiveTuple, MSS, Packet
from repro.steer import (
    FlowDirectorConfig,
    FlowDirectorSteering,
    RssSteering,
    StaticAffinitySteering,
    make_policy,
)


def flows(n, base=5000):
    return [FiveTuple(1 + (i % 16), 99, base + i, 80) for i in range(n)]


ALL_POLICIES = [
    lambda: RssSteering(),
    lambda: FlowDirectorSteering(),
    lambda: StaticAffinitySteering(),
]


# -- bind contract ------------------------------------------------------------


@pytest.mark.parametrize("build", ALL_POLICIES)
def test_bind_is_once_only(build):
    policy = build()
    policy.bind(4)
    with pytest.raises(ValueError):
        policy.bind(4)


@pytest.mark.parametrize("build", ALL_POLICIES)
def test_bind_rejects_zero_queues(build):
    with pytest.raises(ValueError):
        build().bind(0)


# -- stability: one flow, one queue (no churn) --------------------------------


@pytest.mark.parametrize("build", ALL_POLICIES)
def test_one_flow_one_queue_without_churn(build):
    """Under every policy, absent rebalances, a flow's queue never moves.

    Flow Director may migrate a flow once at rule-install time (RSS
    fallback -> affinity home); after that first sampled install the
    assignment must hold.
    """
    policy = build()
    policy.bind(8)
    for flow in flows(64):
        # Warm up past any install transient (sample_rate default is 20).
        for _ in range(64):
            policy.queue_index(flow)
        settled = policy.queue_index(flow)
        for _ in range(200):
            assert policy.queue_index(flow) == settled
        assert policy.current_queue(flow) == settled


@pytest.mark.parametrize("build", ALL_POLICIES)
def test_queue_index_in_range(build):
    policy = build()
    policy.bind(3)
    for flow in flows(128):
        assert 0 <= policy.queue_index(flow) < 3


def test_current_queue_is_pure_on_flow_director():
    policy = FlowDirectorSteering(FlowDirectorConfig(sample_rate=2))
    policy.bind(4)
    flow = flows(1)[0]
    before = dict(policy.counters())
    for _ in range(100):
        policy.current_queue(flow)
    assert policy.counters() == before


# -- RSS distribution ---------------------------------------------------------


@pytest.mark.parametrize("num_queues", [2, 4, 8, 16])
def test_rss_balances_flows_across_queues(num_queues):
    """The FNV mix spreads a big flow population near-uniformly."""
    policy = RssSteering()
    policy.bind(num_queues)
    population = [FiveTuple(src, dst, 1_024 + i, 80)
                  for i, (src, dst) in enumerate(
                      (s, d) for s in range(1, 65) for d in range(1, 65))]
    counts = [0] * num_queues
    for flow in population:
        counts[policy.queue_index(flow)] += 1
    expected = len(population) / num_queues
    for count in counts:
        assert 0.7 * expected <= count <= 1.3 * expected, counts


def test_rss_matches_raw_hash_modulo():
    """The policy is exactly the NIC's historical inline demux."""
    policy = RssSteering()
    policy.bind(5)
    for flow in flows(64):
        assert policy.queue_index(flow) == flow.rss_hash() % 5


class _Queue:
    def __init__(self):
        self.packets = []

    def enqueue(self, packet):
        self.packets.append(packet)


@pytest.mark.parametrize("build", ALL_POLICIES)
def test_demux_enqueues_where_a_fresh_twin_steers(build):
    """A policy's demux (RSS's flattened one included) puts each packet on
    the queue its ``queue_index`` picks, ticking the same state."""
    policy, twin = build(), build()
    policy.bind(5)
    twin.bind(5)
    queues = [_Queue() for _ in range(5)]
    receive = policy.demux(queues)
    packets = [Packet(flow, i * MSS, MSS)
               for i in range(3) for flow in flows(64)]
    want = [[] for _ in range(5)]
    for packet in packets:
        receive(packet)
        want[twin.queue_index(packet.flow)].append(packet)
    assert [q.packets for q in queues] == want
    assert policy.counters() == twin.counters()


def test_rss_rebalance_is_a_noop():
    policy = RssSteering()
    policy.bind(4)
    flow = flows(1)[0]
    before = policy.queue_index(flow)
    assert policy.rebalance(1.0, flush_table=True) == 0
    assert policy.queue_index(flow) == before
    assert policy.counters() == {}


# -- static pins --------------------------------------------------------------


def test_static_pins_override_rss():
    fs = flows(8)
    policy = StaticAffinitySteering({f: i % 3 for i, f in enumerate(fs)})
    policy.bind(3)
    for i, flow in enumerate(fs):
        assert policy.queue_index(flow) == i % 3
        assert policy.current_queue(flow) == i % 3


def test_static_unpinned_falls_back_to_rss():
    policy = StaticAffinitySteering()
    policy.bind(4)
    flow = flows(1)[0]
    assert policy.queue_index(flow) == flow.rss_hash() % 4
    assert policy.counters()["fallback_lookups"] == 1


def test_static_pin_validation_and_wrapping():
    policy = StaticAffinitySteering()
    policy.bind(2)
    flow = flows(1)[0]
    with pytest.raises(ValueError):
        policy.pin(flow, -1)
    policy.pin(flow, 5)  # wraps modulo the queue count
    assert policy.queue_index(flow) == 1


# -- factory ------------------------------------------------------------------


def test_make_policy_builds_each_kind():
    assert isinstance(make_policy("rss"), RssSteering)
    assert isinstance(make_policy("flow_director"), FlowDirectorSteering)
    assert isinstance(make_policy("static"), StaticAffinitySteering)
    with pytest.raises(ValueError):
        make_policy("toeplitz")
