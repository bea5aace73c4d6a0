"""Event-heap contract: fire-order fidelity, tombstone bounds, spent entries.

The heap layout and the tombstone compaction pass are implementation
detail — these tests pin the observable contract: the fire order is the
(time, seq) total order, resident cancelled events stay bounded under
sustained re-arm churn, and a handle or timer whose event already fired can
never touch a later one.
"""

from repro.sim import MS, Engine, RngRegistry, Timer
from repro.sim.engine import COMPACT_FLOOR


def _fire_order(schedule_plan):
    """Run a plan of (delay_from_start, tag) through the engine; return the
    tags in fire order."""
    engine = Engine()
    fired = []
    for delay, tag in schedule_plan:
        engine.schedule(delay, lambda t=tag: fired.append(t))
    engine.run()
    return fired


def test_fire_order_matches_reference_heap_over_near_and_far_delays():
    # Near (one poll interval), mid (tens of ms) and far (hundreds of ms)
    # delays, plus a region of heavy same-instant ties.  The order must
    # match a plain sort by (time, seq).
    rng = RngRegistry(7).stream("heap-order")
    plan = []
    for i in range(2_000):
        region = i % 4
        if region == 0:
            delay = rng.randrange(0, 1 << 16)
        elif region == 1:
            delay = rng.randrange(0, 40 * MS)
        elif region == 2:
            delay = rng.randrange(40 * MS, 200 * MS)
        else:
            delay = 40 * MS + (i % 3) - 1
        plan.append((delay, i))
    reference = [tag for _, _, tag in
                 sorted((delay, seq, tag)
                        for seq, (delay, tag) in enumerate(plan))]
    assert _fire_order(plan) == reference


def test_same_instant_ties_fire_in_scheduling_order():
    # An event filed far ahead and one filed for the *same instant* just
    # before it is due: the earlier-scheduled one must fire first.
    engine = Engine()
    fired = []
    target = 100 * MS
    engine.schedule(target, fired.append, "filed-early")
    engine.schedule(target - 10, lambda: (
        engine.schedule(10, fired.append, "filed-late")))
    engine.run()
    assert fired == ["filed-early", "filed-late"]


def test_golden_seed_fire_sequence_is_reproducible():
    rng_a = RngRegistry(42).stream("golden")
    rng_b = RngRegistry(42).stream("golden")

    def sequence(rng):
        plan = [(rng.randrange(0, 100 * MS), i) for i in range(500)]
        return _fire_order(plan)

    assert sequence(rng_a) == sequence(rng_b)


def test_tombstones_bounded_under_sustained_rearm_churn():
    # The hrtimer pattern: 64 timers re-armed every poll against deadlines
    # ~1000 polls out.  Without compaction, resident cancelled events grow
    # with churn (tens of thousands here); with it they stay bounded.
    engine = Engine()
    timers = [Timer(engine, lambda: None) for _ in range(64)]
    max_resident = 0

    def poll(round_no):
        nonlocal max_resident
        for k, timer in enumerate(timers):
            timer.arm_at(engine.now + 1_000_000 + k * 100)
        max_resident = max(max_resident, engine.pending)
        assert engine.tombstones <= max(engine.pending_live, COMPACT_FLOOR)
        if round_no < 1_000:
            engine.schedule(1_000, poll, round_no + 1)

    engine.schedule(0, poll, 0)
    engine.run()
    assert engine.compactions > 0
    # 64k cancellations happened; residency stayed near the live count.
    assert max_resident <= 2 * max(64 + 2, COMPACT_FLOOR)
    # A fully drained engine holds nothing — live or tombstoned.
    assert engine.pending == 0
    assert engine.pending_live == 0


def test_pending_live_vs_pending_accounting():
    engine = Engine()
    keep = engine.schedule(100, lambda: None)
    drop = engine.schedule(200, lambda: None)
    assert engine.pending == 2
    assert engine.pending_live == 2
    drop.cancel()
    assert engine.pending_live == 1
    assert engine.pending == 2  # the tombstone is still resident
    assert engine.tombstones == 1
    engine.run()
    assert keep.active is False
    assert engine.pending == 0


def test_stale_handle_is_inert_after_its_event_fired():
    engine = Engine()
    fired = []
    stale = engine.schedule(10, fired.append, "a")
    engine.run()
    fresh = engine.schedule(10, fired.append, "b")
    assert not stale.active
    stale.cancel()  # must not touch the later event
    assert fresh.active
    assert engine.tombstones == 0
    engine.run()
    assert fired == ["a", "b"]


def test_timer_rearmed_after_it_fired():
    engine = Engine()
    fires = []
    timer = Timer(engine, lambda: fires.append(engine.now))
    timer.arm_after(50)
    engine.run()
    assert fires == [50]
    assert not timer.armed
    # Cancelling a fired timer is a no-op.
    timer.cancel()
    assert engine.tombstones == 0
    timer.arm_after(25)
    assert timer.armed and timer.expires_at == 75
    engine.run()
    assert fires == [50, 75]


def test_callback_cancelling_its_own_handle_is_a_no_op():
    engine = Engine()
    fired = []
    later = engine.schedule(20, fired.append, "later")

    def self_cancel():
        fired.append("self")
        handle.cancel()
        assert engine.tombstones == 0
        assert engine.pending_live == 1  # only "later" is left

    handle = engine.schedule(10, self_cancel)
    engine.run()
    assert fired == ["self", "later"]
    assert not later.active
    assert engine.pending == engine.pending_live == 0


def test_callback_cancels_another_event_due_at_the_same_instant():
    engine = Engine()
    fired = []
    engine.schedule(10, lambda: (fired.append("first"), victim.cancel()))
    victim = engine.schedule(10, fired.append, "victim")
    engine.schedule(10, fired.append, "last")
    engine.run()
    assert fired == ["first", "last"]
    assert engine.events_processed == 2
    assert engine.pending == engine.pending_live == 0
