"""Struct-of-arrays packet batches — one object per NAPI poll, not per packet.

PR 4 took the per-packet cost down with engine and allocation cuts;
the next multiple comes from the data layout (ROADMAP item 2).  A
:class:`PacketBatch` carries a whole poll's worth of wire packets as
parallel integer columns (``array('q')``, or numpy int64 when
``JUGGLER_NUMPY=1`` and numpy is importable) plus a construction-time
*flow-run index*: maximal stretches of consecutive packets that belong to
the same flow.  GRO engines walk the run index and process each run against
one flow's state with all lookups hoisted, touching Python ``Packet``
objects only on the fallback path (rehydrated from a :class:`PacketPool`).

Two backings share the one type:

* **native** batches are filled column-wise at the RX ring
  (:meth:`append_wire` + :meth:`seal`) and never hold ``Packet`` objects
  unless a consumer explicitly materializes them;
* **object-backed** batches (:meth:`from_packets`) wrap an existing packet
  list — only the run index is built eagerly; columns materialize lazily
  for consumers that want them.

The *fast-path predicate* (what a columnar engine may handle in-loop)
is deliberately narrow; everything else punts to the engine's per-packet
``receive`` reference path:

* ``0 < payload_len <= MSS`` — zero-payload ACKs pass through, jumbo
  payloads are not worth special-casing;
* no flush-forcing flags (PSH/URG/SYN/FIN/RST — ``fint & 0x2F == 0``);
* no CE mark and no TCP options (``sig_key & 0x300 == 0``) — with those
  bits clear the integer ``sig_key`` is injective w.r.t. the tuple
  signature, so merge probes compare one int.

:class:`SoaSegment` is the column-backed counterpart of
:class:`~repro.net.segment.Segment`: GRO nodes built from native batches
append *values*, not packets, and materialize real ``Packet`` objects only
if somebody reads ``.packets`` (delivery consumers that iterate payloads).
"""

from __future__ import annotations

import os
from array import array
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.net.addr import FiveTuple
from repro.net.constants import MSS, PRIORITY_LOW
from repro.net.flags import TcpFlags
from repro.net.packet import Packet
from repro.net.pool import PacketPool, release_terminal
from repro.net.segment import BatchingMode, Segment

#: Flag bits that force a flush (PSH|URG|SYN|FIN|RST) — Table 2.
FLUSH_MASK = 0x2F
#: sig_key bits that mark a packet columnar code must not merge by int
#: compare: 0x100 = carries TCP options (opaque), 0x200 = CE-marked,
#: 0x400 = the row is backed by a real ``Packet`` held in ``_extras``
#: (state the columns cannot encode — ack/rwnd/SACK, retransmission
#: marks); such rows must be materialized, never value-merged.
ODD_SIG_MASK = 0x700
#: The object-carried bit alone (see :meth:`PacketBatch.append_packet`).
OBJ_ROW = 0x400

_NUMPY_ENV = "JUGGLER_NUMPY"

if os.environ.get(_NUMPY_ENV, "") not in ("", "0"):
    try:  # pragma: no cover - exercised only in the numpy CI leg
        import numpy as _np
    except ImportError:  # pragma: no cover
        _np = None
else:
    _np = None


def numpy_columns_enabled() -> bool:
    """True when columns are numpy int64 arrays instead of ``array('q')``."""
    return _np is not None


def _column(values: Sequence[int]):
    """Freeze a staged list of ints into this build's column type."""
    if _np is not None:  # pragma: no cover - numpy CI leg
        return _np.asarray(values, dtype=_np.int64)
    return array("q", values)


#: All 256 flag combinations, premade so rehydration never constructs an
#: IntFlag (and never keeps a mutable cache on the receive path).
_FLAGS_BY_INT = tuple(TcpFlags(v) for v in range(256))


def sig_key_of(flags_int: int, ce: bool, options: tuple) -> int:
    """The integer merge signature (mirrors ``Packet.sig_key``)."""
    return ((flags_int & ~0x08)
            | (0x100 if options else 0)
            | (0x200 if ce else 0))


class PacketBatch:
    """A poll's worth of packets as parallel columns plus a flow-run index.

    ``runs`` is a list of ``(slot, start, stop)`` tuples covering
    ``[0, len(batch))`` in order: packets ``start..stop`` all belong to
    ``flows[slot]``.  A flow may own several runs in one batch (its packets
    interleaved with another flow's), and engines must re-establish flow
    state per run — admission or eviction triggered by one run can
    invalidate entries cached across another.
    """

    __slots__ = ("length", "packets", "flows", "runs", "owner_domain",
                 "_slot_of", "_seq", "_payload_len", "_end_seq", "_flags",
                 "_sig", "_slot", "_sent_at", "_received_at", "_tso",
                 "_extras", "_sealed")

    def __init__(self) -> None:
        """Open an empty *native* batch for column-wise filling."""
        self.length = 0
        #: ``None`` for native batches; the wrapped list for object-backed.
        self.packets: Optional[List[Packet]] = None
        self.flows: List[FiveTuple] = []
        self.runs: Optional[List[Tuple[int, int, int]]] = None
        #: Shard-isolation tag: set by the owning RxQueue so OSAN can treat
        #: batch columns as that shard's private state.
        self.owner_domain: Optional[str] = None
        self._slot_of: Dict[FiveTuple, int] = {}
        self._seq: list = []
        self._payload_len: list = []
        self._end_seq: Optional[list] = None
        self._flags: list = []
        self._sig: list = []
        self._slot: list = []
        self._sent_at: list = []
        self._received_at: list = []
        #: TSO burst id per row, -1 = none (the id is upstream telemetry —
        #: fabric routing reads it before the NIC — but carrying it keeps
        #: rehydrated packets field-identical to what arrived).
        self._tso: list = []
        #: Sparse row -> kwargs for fields the columns cannot carry
        #: (currently only TCP options); consulted at materialization.
        self._extras: Optional[Dict[int, dict]] = None
        self._sealed = False

    # -- native fill path -----------------------------------------------------

    def append_wire(self, flow: FiveTuple, seq: int, payload_len: int, *,
                    flags: int = int(TcpFlags.ACK), ce: bool = False,
                    sent_at: int = 0, received_at: int = 0,
                    tso: int = -1, options: tuple = ()) -> int:
        """Append one wire packet's header fields; returns its row index.

        This is the NIC's columnar ring fill — checksum verification and
        ring-overflow drops happen *before* this call, so a batch only ever
        holds frames that will reach GRO.
        """
        i = self.length
        f = int(flags)
        slot = self._slot_of.get(flow)
        if slot is None:
            slot = len(self.flows)
            self._slot_of[flow] = slot
            self.flows.append(flow)
        self._seq.append(seq)
        self._payload_len.append(payload_len)
        self._flags.append(f)
        self._sig.append((f & ~0x08)
                         | (0x100 if options else 0)
                         | (0x200 if ce else 0))
        self._slot.append(slot)
        self._sent_at.append(sent_at)
        self._received_at.append(received_at)
        self._tso.append(tso)
        if options:
            if self._extras is None:
                self._extras = {}
            self._extras[i] = {"options": options}
        self.length = i + 1
        return i

    def append_packet(self, packet: Packet, *, received_at: int = 0) -> int:
        """Absorb one wire ``Packet`` into the columns; returns its row.

        The columnar ring's compatibility entry: the object path hands us
        packets, the columns carry what they can.  A packet whose state the
        columns encode exactly (plain data: no ack/rwnd/SACK feedback, no
        options, default priority) is absorbed *by value* and released back
        to its pool right away — downstream only ever sees the row.
        Anything else rides along as an object-carried row: the original
        packet is parked in ``_extras`` and the row's sig gets the
        :data:`OBJ_ROW` bit, so engines punt it to their per-packet
        reference path and :meth:`materialize` returns the very object that
        arrived — zero fidelity loss for pure ACKs and other oddballs.
        """
        tso = -1 if packet.tso_id is None else packet.tso_id
        if (packet.ack == 0 and packet.rwnd is None and not packet.sack
                and packet.ce_bytes == 0
                and not packet.is_retransmission and not packet.options
                and packet.priority == PRIORITY_LOW):
            i = self.append_wire(packet.flow, packet.seq, packet.payload_len,
                                 flags=packet.fint, ce=packet.ce,
                                 sent_at=packet.sent_at,
                                 received_at=received_at, tso=tso)
            release_terminal(packet)
            return i
        i = self.append_wire(packet.flow, packet.seq, packet.payload_len,
                             flags=packet.fint, ce=packet.ce,
                             sent_at=packet.sent_at, received_at=received_at,
                             tso=tso)
        self._sig[i] |= OBJ_ROW
        if self._extras is None:
            self._extras = {}
        self._extras[i] = {"packet": packet}
        return i

    def seal(self) -> "PacketBatch":
        """Freeze columns and build the flow-run index; idempotent."""
        if self._sealed:
            return self
        if self.packets is not None:
            raise ValueError("object-backed batches are sealed at construction")
        slots = self._slot
        runs: List[Tuple[int, int, int]] = []
        n = len(slots)
        if n:
            prev = slots[0]
            start = 0
            for i in range(1, n):
                s = slots[i]
                if s != prev:
                    runs.append((prev, start, i))
                    prev = s
                    start = i
            runs.append((prev, start, n))
        self.runs = runs
        self._seq = _column(self._seq)
        self._payload_len = _column(self._payload_len)
        self._flags = _column(self._flags)
        self._sig = _column(self._sig)
        self._slot = _column(self._slot)
        self._sent_at = _column(self._sent_at)
        self._received_at = _column(self._received_at)
        self._tso = _column(self._tso)
        self._sealed = True
        return self

    # -- object-backed construction -------------------------------------------

    @classmethod
    def from_packets(cls, packets: Sequence[Packet]) -> "PacketBatch":
        """Wrap an existing packet list; only the run index is built eagerly.

        The fast skip below leans on workloads reusing one ``FiveTuple``
        object per flow (identity check); distinct-but-equal keys still
        land on one slot through the dict, just via a slower probe.
        """
        b = cls.__new__(cls)
        pkts = packets if type(packets) is list else list(packets)
        b.packets = pkts
        b.length = len(pkts)
        flows: List[FiveTuple] = []
        slot_of: Dict[FiveTuple, int] = {}
        runs: List[Tuple[int, int, int]] = []
        prev_flow = None
        prev_slot = -1
        start = 0
        for i, p in enumerate(pkts):
            fl = p.flow
            if fl is prev_flow:
                continue
            slot = slot_of.get(fl)
            if slot is None:
                slot = len(flows)
                slot_of[fl] = slot
                flows.append(fl)
            if slot != prev_slot or prev_flow is None:
                if i:
                    runs.append((prev_slot, start, i))
                start = i
            prev_slot = slot
            prev_flow = fl
        if pkts:
            runs.append((prev_slot, start, len(pkts)))
        b.flows = flows
        b.runs = runs
        b.owner_domain = None
        b._slot_of = slot_of
        b._seq = None
        b._payload_len = None
        b._end_seq = None
        b._flags = None
        b._sig = None
        b._slot = None
        b._sent_at = None
        b._received_at = None
        b._tso = None
        b._extras = None
        b._sealed = True
        return b

    # -- columns ---------------------------------------------------------------

    @property
    def seq(self):
        col = self._seq
        if col is None:
            col = self._seq = _column([p.seq for p in self.packets])
        return col

    @property
    def payload_len(self):
        col = self._payload_len
        if col is None:
            col = self._payload_len = _column(
                [p.payload_len for p in self.packets])
        return col

    @property
    def end_seq(self):
        col = self._end_seq
        if col is None:
            seq = self.seq
            ln = self.payload_len
            col = self._end_seq = _column(
                [seq[i] + ln[i] for i in range(self.length)])
        return col

    @property
    def flags(self):
        col = self._flags
        if col is None:
            col = self._flags = _column([p.fint for p in self.packets])
        return col

    @property
    def sig(self):
        col = self._sig
        if col is None:
            col = self._sig = _column([p.sig_key for p in self.packets])
        return col

    @property
    def slot(self):
        col = self._slot
        if col is None:
            slot_of = self._slot_of
            col = self._slot = _column(
                [slot_of[p.flow] for p in self.packets])
        return col

    @property
    def sent_at(self):
        col = self._sent_at
        if col is None:
            col = self._sent_at = _column([p.sent_at for p in self.packets])
        return col

    @property
    def received_at(self):
        col = self._received_at
        if col is None:
            col = self._received_at = _column(
                [p.received_at for p in self.packets])
        return col

    @property
    def tso(self):
        col = self._tso
        if col is None:
            col = self._tso = _column(
                [-1 if p.tso_id is None else p.tso_id
                 for p in self.packets])
        return col

    # -- introspection ---------------------------------------------------------

    def __len__(self) -> int:
        return self.length

    @property
    def is_native(self) -> bool:
        """True when no ``Packet`` objects back this batch."""
        return self.packets is None

    def eligible_split(self, start: int, stop: int) -> int:
        """First row in ``[start, stop)`` failing the fast-path predicate.

        Returns ``stop`` when the whole range is columnar-eligible.  This is
        the documented run-split point; engines apply the same per-row
        predicate inline (and resume in-loop after a punted row, which is
        equivalent because every row is classified independently against
        refreshed flow state).
        """
        if self.packets is not None:
            for i in range(start, stop):
                p = self.packets[i]
                ln = p.payload_len
                if (ln <= 0 or ln > MSS or p.forces_flush
                        or (p.sig_key & ODD_SIG_MASK)):
                    return i
            return stop
        lens = self.payload_len
        flags = self.flags
        sigs = self.sig
        for i in range(start, stop):
            ln = lens[i]
            if (ln <= 0 or ln > MSS or (flags[i] & FLUSH_MASK)
                    or (sigs[i] & ODD_SIG_MASK)):
                return i
        return stop

    # -- rehydration -----------------------------------------------------------

    def materialize(self, i: int, pool: Optional[PacketPool] = None) -> Packet:
        """Rehydrate row ``i`` as a real ``Packet`` (drawing from ``pool``)."""
        pkts = self.packets
        if pkts is not None:
            return pkts[i]
        flow = self.flows[self._slot[i]]
        seq = self._seq[i]
        ln = self._payload_len[i]
        fl = int(self._flags[i])
        kwargs = {}
        extras = self._extras
        if extras is not None:
            extra = extras.get(i)
            if extra is not None:
                carried = extra.get("packet")
                if carried is not None:
                    # Object-carried row: the wire packet itself, exactly
                    # as it arrived (see append_packet).
                    return carried
                kwargs = extra
        t = self._tso[i]
        if t >= 0:
            kwargs = dict(kwargs, tso_id=int(t))
        if pool is not None:
            pk = pool.acquire(flow, seq, ln, flags=_FLAGS_BY_INT[fl & 0xFF],
                              ce=bool(self._sig[i] & 0x200),
                              sent_at=int(self._sent_at[i]), **kwargs)
        else:
            pk = Packet(flow, seq, ln, flags=_FLAGS_BY_INT[fl & 0xFF],
                        ce=bool(self._sig[i] & 0x200),
                        sent_at=int(self._sent_at[i]), **kwargs)
        pk.received_at = int(self._received_at[i])
        return pk

    def to_packets(self, pool: Optional[PacketPool] = None) -> List[Packet]:
        """The whole batch as ``Packet`` objects (identity for object mode)."""
        if self.packets is not None:
            return self.packets
        return [self.materialize(i, pool) for i in range(self.length)]

    def gather(self, indices: Sequence[int]) -> "PacketBatch":
        """A new sealed native batch holding the given rows, in order.

        Used by the NIC demux to split one wire batch into per-queue
        sub-batches; native batches only (object-backed demux just slices
        the packet list).
        """
        if self.packets is not None:
            raise ValueError("gather() is for native batches; slice .packets")
        if not self._sealed:
            self.seal()
        sub = PacketBatch()
        flows = self.flows
        slots = self._slot
        extras = self._extras
        for i in indices:
            j = sub.append_wire(
                flows[slots[i]], int(self._seq[i]),
                int(self._payload_len[i]), flags=int(self._flags[i]),
                ce=bool(self._sig[i] & 0x200),
                sent_at=int(self._sent_at[i]),
                received_at=int(self._received_at[i]),
                tso=int(self._tso[i]))
            # Copy the signature verbatim: append_wire rebuilds it from
            # flags+CE alone, which would shed the options (0x100) and
            # object-carried (0x400) odd bits.
            sub._sig[j] = int(self._sig[i])
            if extras is not None and i in extras:
                if sub._extras is None:
                    sub._extras = {}
                sub._extras[j] = extras[i]
        sub.owner_domain = self.owner_domain
        return sub.seal()

    def iter_rows(self) -> Iterator[Tuple[FiveTuple, int, int, int]]:
        """(flow, seq, payload_len, flags) per row — tests/debugging aid."""
        slots = self.slot
        seqs = self.seq
        lens = self.payload_len
        flags = self.flags
        flows = self.flows
        for i in range(self.length):
            yield flows[slots[i]], int(seqs[i]), int(lens[i]), int(flags[i])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "obj" if self.packets is not None else "native"
        return (f"<PacketBatch {kind} len={self.length} "
                f"flows={len(self.flows)} runs={len(self.runs or [])}>")


class SoaSegment(Segment):
    """A GRO node whose packets live as parallel value lists, not objects.

    Opened by columnar engines for rows of native batches; every merge is a
    handful of int appends.  ``.packets`` materializes real ``Packet``
    objects lazily (first read) for delivery consumers, and from then on
    the materialized list is kept in sync so mixed object/value merge
    sequences stay coherent.

    Only fast-path-eligible rows open or merge into these nodes by value,
    so a ``SoaSegment`` never carries CE marks or TCP options; object
    packets that pass the tuple-signature checks are *absorbed* by value
    and immediately released back to their pool.
    """

    __slots__ = ("_pseq", "_plen", "_pflags", "_psent", "_mat")

    @classmethod
    def open(cls, flow: FiveTuple, seq: int, end_seq: int, payload_len: int,
             flags_int: int, sent_at: int) -> "SoaSegment":
        seg = cls.__new__(cls)
        seg.flow = flow
        seg.seq = seq
        seg.end_seq = end_seq
        seg.mtus = 1
        seg.mode = BatchingMode.FRAGS_ARRAY
        seg.first_sent_at = sent_at
        seg.flushed_at = 0
        seg.in_order = True
        fm = flags_int & ~0x08
        seg.sig = ((), False, fm)
        seg.sig_key = fm
        seg._payload = payload_len
        seg._closed = (flags_int & FLUSH_MASK) != 0
        seg._pseq = [seq]
        seg._plen = [payload_len]
        seg._pflags = [flags_int]
        seg._psent = [sent_at]
        seg._mat = None
        return seg

    # -- packet view -----------------------------------------------------------

    @property
    def packets(self) -> List[Packet]:
        mat = self._mat
        if mat is None:
            flow = self.flow
            pseq = self._pseq
            plen = self._plen
            pflags = self._pflags
            psent = self._psent
            mat = self._mat = [
                Packet(flow, pseq[k], plen[k],
                       flags=_FLAGS_BY_INT[pflags[k] & 0xFF],
                       sent_at=psent[k])
                for k in range(len(pseq))
            ]
        return mat

    @property
    def forces_flush(self) -> bool:
        return any(f & FLUSH_MASK for f in self._pflags)

    @property
    def ce_payload_bytes(self) -> int:
        return 0  # value-merged rows are CE-free by the fast-path predicate

    # -- value merges ----------------------------------------------------------

    def append_value(self, seq: int, end_seq: int, payload_len: int,
                     flags_int: int, sent_at: int) -> None:
        """Tail-merge one row (caller checked contiguity/sig/cap)."""
        mat = self._mat
        if mat is not None:
            mat.append(Packet(self.flow, seq, payload_len,
                              flags=_FLAGS_BY_INT[flags_int & 0xFF],
                              sent_at=sent_at))
        self._pseq.append(seq)
        self._plen.append(payload_len)
        self._pflags.append(flags_int)
        self._psent.append(sent_at)
        self.end_seq = end_seq
        self.mtus += 1
        self._payload += payload_len
        self._closed = (flags_int & FLUSH_MASK) != 0
        if sent_at < self.first_sent_at:
            self.first_sent_at = sent_at

    def prepend_value(self, seq: int, payload_len: int, flags_int: int,
                      sent_at: int) -> None:
        """Head-merge one row (caller checked contiguity/sig/cap)."""
        mat = self._mat
        if mat is not None:
            mat.insert(0, Packet(self.flow, seq, payload_len,
                                 flags=_FLAGS_BY_INT[flags_int & 0xFF],
                                 sent_at=sent_at))
        self._pseq.insert(0, seq)
        self._plen.insert(0, payload_len)
        self._pflags.insert(0, flags_int)
        self._psent.insert(0, sent_at)
        self.seq = seq
        self.mtus += 1
        self._payload += payload_len
        if sent_at < self.first_sent_at:
            self.first_sent_at = sent_at

    # -- object-packet interop -------------------------------------------------

    def append(self, packet: Packet) -> None:
        """Absorb an object packet by value and release it to its pool.

        The signature checks the caller ran (``can_append``) guarantee the
        packet is CE-free and option-free, so the columns can represent it
        exactly; the object itself is surplus and goes back to the pool
        (its field values stay readable until the pool reuses it, which
        cannot happen before the caller's own reads complete).
        """
        self.append_value(packet.seq, packet.end_seq, packet.payload_len,
                          packet.fint, packet.sent_at)
        release_terminal(packet)

    def prepend(self, packet: Packet) -> None:
        self.prepend_value(packet.seq, packet.payload_len, packet.fint,
                           packet.sent_at)
        release_terminal(packet)

    def extend(self, other: Segment) -> None:
        if isinstance(other, SoaSegment):
            mat = self._mat
            if mat is not None:
                mat.extend(other.packets)
            elif other._mat is not None:
                # Keep one source of truth: materialize ourselves too.
                self.packets.extend(other.packets)
            self._pseq.extend(other._pseq)
            self._plen.extend(other._plen)
            self._pflags.extend(other._pflags)
            self._psent.extend(other._psent)
            self.end_seq = other.end_seq
            self.mtus += other.mtus
            self._payload += other._payload
            self._closed = other._closed
            if other.first_sent_at < self.first_sent_at:
                self.first_sent_at = other.first_sent_at
        else:
            for p in list(other.packets):
                self.append(p)
