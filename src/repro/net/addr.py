"""The canonical five-tuple flow key.

Juggler keys its ``gro_table`` entries "by the canonical five-tuple" (§4.1);
the NIC's RSS hash that spreads flows across receive queues uses the same
tuple.  We model addresses as small integers (host ids / port numbers) —
sufficient for hashing and equality, which is all the stack inspects.

``FiveTuple`` is the single hottest dictionary key in the stack: every
packet probes the ``gro_table`` (and the host demux, and the stats map)
with one.  It is therefore a slotted value class with its hash computed
once at construction — as a ``NamedTuple`` it re-hashed all five fields on
every probe, which profiling showed near the top of the receive path.
"""

from __future__ import annotations


class FiveTuple:
    """(src addr, dst addr, src port, dst port, protocol).

    Immutable by convention: nothing in the stack mutates a flow key after
    construction (mutating one would corrupt every dict it keys).
    """

    __slots__ = ("src", "dst", "sport", "dport", "proto", "_hash", "_rss",
                 "_rev")

    def __init__(self, src: int, dst: int, sport: int, dport: int,
                 proto: int = 6):
        self.src = src
        self.dst = dst
        self.sport = sport
        self.dport = dport
        self.proto = proto  # 6 = TCP
        self._hash = hash((src, dst, sport, dport, proto))
        # The NIC probes the RSS hash once per packet (steering demux);
        # computed here, beside _hash, for the same reason _hash is.
        h = 0xCBF29CE484222325
        for field in (src, dst, sport, dport, proto):
            h ^= field & 0xFFFFFFFF
            h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
            h ^= h >> 29
        self._rss = h
        #: The opposite direction's key, made on first :meth:`reversed`.
        self._rev = None

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FiveTuple):
            return (self.src == other.src and self.dst == other.dst
                    and self.sport == other.sport
                    and self.dport == other.dport
                    and self.proto == other.proto)
        return NotImplemented

    def reversed(self) -> "FiveTuple":
        """The tuple of the opposite direction (for ACKs).

        Memoised and involutive: every call returns the same object, and
        ``f.reversed().reversed() is f``.  A receiver's ACKs therefore carry
        the very key its peer sender registered with the host, so the
        demux dict hits on identity without calling :meth:`__eq__`.
        """
        rev = self._rev
        if rev is None:
            rev = self._rev = FiveTuple(self.dst, self.src, self.dport,
                                        self.sport, self.proto)
            rev._rev = self
        return rev

    def rss_hash(self) -> int:
        """Deterministic flow hash, stand-in for the NIC's Toeplitz hash.

        Real NICs hash the five-tuple so all packets of one flow land on one
        RX queue; any well-mixed deterministic function reproduces that
        behaviour.  We use an FNV-1a style mix over the tuple fields,
        computed once at construction (``_rss``) — the NIC demuxes every
        wire packet through this value.
        """
        return self._rss

    def __str__(self) -> str:
        return f"{self.src}:{self.sport}->{self.dst}:{self.dport}/{self.proto}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"FiveTuple(src={self.src}, dst={self.dst}, "
                f"sport={self.sport}, dport={self.dport}, proto={self.proto})")
