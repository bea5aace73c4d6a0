"""Wire-format constants shared across the stack.

The values mirror a standard Ethernet datacenter deployment, the setting of
the paper's testbed: 1500-byte MTU, TCP/IPv4 headers, 64 KB TSO/GRO segments
("as much as 64KB of data — 45 MTU-sized packets", §2.2 footnote).
"""

#: Ethernet MTU in bytes (IP packet size limit).
MTU = 1500

#: TCP/IPv4 header bytes inside the MTU (20 IP + 20 TCP; options are modelled
#: separately and do not change segmentation arithmetic).
HEADER_LEN = 40

#: Maximum TCP payload per MTU-sized packet.
MSS = MTU - HEADER_LEN  # 1460

#: Per-frame overhead outside the IP packet: 14 Ethernet header + 4 FCS +
#: 8 preamble + 12 inter-frame gap.
ETHERNET_OVERHEAD = 38

#: Bytes a packet occupies on the wire beyond its TCP payload.
WIRE_OVERHEAD = HEADER_LEN + ETHERNET_OVERHEAD

#: GRO flushes a merged segment once it reaches this many payload bytes
#: ("whenever its size exceeds a preconfigured maximum (64KB)", §3.1).
MAX_GRO_SEGMENT = 65536

#: Largest TSO burst a sender hands to the NIC (fits in MAX_GRO_SEGMENT when
#: re-merged: 44 full MSS packets = 64240 bytes <= 64 KB).
MAX_TSO_PAYLOAD = (MAX_GRO_SEGMENT // MSS) * MSS

#: Two network priority levels, as used by the bandwidth-guarantee system
#: (§2.1): strict priority in the switch, high preempts low.
PRIORITY_HIGH = 0
PRIORITY_LOW = 1


def wire_bytes(payload_len: int) -> int:
    """Bytes a packet with ``payload_len`` TCP payload occupies on the wire."""
    return payload_len + WIRE_OVERHEAD


def transmit_time_ns(payload_len: int, rate_gbps: float) -> int:
    """Serialisation delay of one packet on a ``rate_gbps`` link, in ns."""
    bits = wire_bytes(payload_len) * 8
    return max(1, round(bits / rate_gbps))
