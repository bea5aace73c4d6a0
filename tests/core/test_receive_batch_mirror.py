"""Mirror equivalence: both receive entry points are the same machine.

``JugglerGRO`` keeps per-packet :meth:`receive` as the executable spec and
one batch path, :meth:`receive_batch` over the poll's packet list, that
must never drift from it (``StandardGRO`` inherits the base loop).  This
test drives identical golden streams through both and asserts identical
observable state — full stats, flow-table snapshots (per-entry phase,
sequence state and OOO node summaries), delivered-segment summaries down
to the per-packet (seq, len) lists, and, when a tracer is attached, the
complete typed event sequence.  Any divergence is a dual-maintenance bug
in the batch loop.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import JugglerConfig
from repro.core.juggler import JugglerGRO
from repro.core.standard_gro import StandardGRO
from repro.net.flags import TcpFlags
from repro.net.packet import Packet
from repro.perf.workloads import reordered_stream
from repro.trace.sinks import CallbackSink
from repro.trace.tracer import Tracer

#: Golden (seed, flows, pkts/flow, window) shapes.  96 flows overflows the
#: default 64-entry table, so admission/eviction runs mid-batch; the
#: single-flow shape keeps one OOO queue deep.
SHAPES = (
    (7, 48, 64, 8),
    (11, 8, 200, 16),
    (23, 96, 32, 4),
    (3, 1, 600, 12),
)


def spiced_stream(seed: int, flows: int, pkts: int, window: int):
    """A reordered stream with PSH flags, TCP options, CE marks and pure
    ACKs sprinkled in."""
    base = reordered_stream(flows, pkts, window=window, seed=seed)
    out = []
    for i, p in enumerate(base):
        flags = TcpFlags.ACK
        options = ()
        ce = False
        if i % 37 == 0:
            flags = TcpFlags.ACK | TcpFlags.PSH
        if i % 53 == 0:
            options = (("ts", i),)
        pk = Packet(p.flow, p.seq, p.payload_len, flags=flags,
                    options=options, ce=ce, sent_at=(i * 13) % 1009)
        if i % 41 == 0:
            pk.mark_ce()
        out.append(pk)
        if i % 29 == 0:
            # A pure ACK riding the stream: passthrough on every path.
            out.append(Packet(p.flow, p.seq, 0, sent_at=(i * 13) % 1009))
    return out


def clone(pkts):
    out = []
    for p in pkts:
        q = Packet(p.flow, p.seq, p.payload_len, flags=p.flags,
                   options=p.options, sent_at=p.sent_at)
        if p.ce:
            q.mark_ce()
        out.append(q)
    return out


def stats_tuple(g):
    s = g.stats
    return (s.packets, s.merges, s.duplicates, s.nodes_scanned,
            s.flows_created, s.passthrough_packets, s.segments,
            s.batched_mtus, s.ooo_segments,
            tuple(sorted((r.value, n) for r, n in s.flush_reasons.items())),
            tuple(sorted((p.value, n) for p, n in s.evictions.items())))


def table_snapshot(g):
    return sorted(
        (str(e.key), e.phase.value, e.seq_next, e.lost_seq, e.hole_since,
         e.flush_timestamp,
         tuple((n.seq, n.end_seq, n.mtus, n._payload, n._closed,
                n.first_sent_at) for n in e.ofo.nodes))
        for e in g.table)


def segment_summaries(segs):
    return [(str(s.flow), s.seq, s.end_seq, s.mtus, s._payload, s._closed,
             s.first_sent_at, s.flushed_at,
             tuple((p.seq, p.payload_len) for p in s.packets))
            for s in segs]


def event_summaries(events):
    out = []
    for e in events:
        d = dataclasses.asdict(e)
        d["kind"] = e.kind
        d.pop("flow", None)
        out.append((type(e).__name__, str(getattr(e, "flow", None)),
                    tuple(sorted((k, str(v)) for k, v in d.items()))))
    return out


def drive(engine_factory, stream, batched, *, batch=32, traced=False):
    segs = []
    events = []
    g = engine_factory(segs.append)
    if traced:
        tracer = Tracer([CallbackSink(events.append)])
        g.attach_tracer(tracer)
        table = getattr(g, "table", None)
        if table is not None:
            table.tracer = tracer
    pkts = clone(stream)
    now = 0
    for off in range(0, len(pkts), batch):
        chunk = pkts[off:off + batch]
        now = (off + len(chunk)) * 100
        if batched:
            g.receive_batch(chunk, now)
        else:
            for p in chunk:
                g.receive(p, now)
        g.poll_complete(now)
        g.check_timeouts(now + 51_000 if off % (batch * 4) == 0 else now)
    g.flush_all(now + 1)
    return (stats_tuple(g), table_snapshot(g) if hasattr(g, "table") else (),
            segment_summaries(segs), event_summaries(events))


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"seed{s[0]}")
@pytest.mark.parametrize("traced", (False, True), ids=("plain", "traced"))
def test_juggler_batch_mirror(shape, traced):
    stream = spiced_stream(*shape)
    factory = lambda sink: JugglerGRO(sink, config=JugglerConfig())
    reference = drive(factory, stream, False, traced=traced)
    got = drive(factory, stream, True, traced=traced)
    assert got[0] == reference[0], "stats diverged"
    assert got[1] == reference[1], "flow table diverged"
    assert got[2] == reference[2], "deliveries diverged"
    assert got[3] == reference[3], "trace events diverged"


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"seed{s[0]}")
def test_standard_gro_batch_mirror(shape):
    stream = spiced_stream(*shape)
    factory = lambda sink: StandardGRO(sink)
    reference = drive(factory, stream, False)
    got = drive(factory, stream, True)
    assert got[0] == reference[0], "stats diverged"
    assert got[2] == reference[2], "deliveries diverged"
