"""Protocol header objects for the NS-3-style packet header stack.

Headers model wire size (for data-rate/queueing realism) and carry the
fields the stack dispatches on.  They are plain slotted objects rather
than serialized bytes: flood experiments create millions of them, and the
simulation only ever needs field access, not re-parsing.  Application
payloads that *are* parsed by the vulnerable binaries (DNS, DHCPv6, HTTP)
travel as real ``bytes`` in :attr:`repro.netsim.packet.Packet.payload`.
"""

from __future__ import annotations

from repro.netsim.address import Address, Ipv4Address, Ipv6Address, MacAddress

# IANA protocol numbers used by the stack.
PROTO_TCP = 6
PROTO_UDP = 17

# Ethertypes.
ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_IPV6 = 0x86DD


class Header:
    """Base class for protocol headers; ``wire_size`` is bytes on the wire."""

    __slots__ = ()
    wire_size: int = 0


class EthernetHeader(Header):
    """14-byte Ethernet II header."""

    __slots__ = ("src", "dst", "ethertype")
    wire_size = 14

    def __init__(self, src: MacAddress, dst: MacAddress, ethertype: int):
        self.src = src
        self.dst = dst
        self.ethertype = ethertype

    def __repr__(self) -> str:
        return f"<Eth {self.src}->{self.dst} type={self.ethertype:#06x}>"


class Ipv4Header(Header):
    """20-byte IPv4 header (no options)."""

    __slots__ = ("src", "dst", "protocol", "ttl")
    wire_size = 20

    def __init__(self, src: Ipv4Address, dst: Ipv4Address, protocol: int, ttl: int = 64):
        self.src = src
        self.dst = dst
        self.protocol = protocol
        self.ttl = ttl

    def __repr__(self) -> str:
        return f"<IPv4 {self.src}->{self.dst} proto={self.protocol} ttl={self.ttl}>"


class Ipv6Header(Header):
    """40-byte IPv6 header.

    The fields are stored under the IPv4 names (``protocol``, ``ttl``) so
    the IP layer reads v4 and v6 headers alike with plain slot access;
    ``next_header`` and ``hop_limit`` are the IPv6 names for them.
    """

    __slots__ = ("src", "dst", "protocol", "ttl")
    wire_size = 40

    def __init__(self, src: Ipv6Address, dst: Ipv6Address, next_header: int, hop_limit: int = 64):
        self.src = src
        self.dst = dst
        self.protocol = next_header
        self.ttl = hop_limit

    @property
    def next_header(self) -> int:
        return self.protocol

    @property
    def hop_limit(self) -> int:
        return self.ttl

    @hop_limit.setter
    def hop_limit(self, value: int) -> None:
        self.ttl = value

    def __repr__(self) -> str:
        return f"<IPv6 {self.src}->{self.dst} nh={self.protocol} hl={self.ttl}>"


class UdpHeader(Header):
    """8-byte UDP header."""

    __slots__ = ("src_port", "dst_port")
    wire_size = 8

    def __init__(self, src_port: int, dst_port: int):
        self.src_port = src_port
        self.dst_port = dst_port

    def __repr__(self) -> str:
        return f"<UDP {self.src_port}->{self.dst_port}>"


# TCP flag bits.
TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10


class TcpHeader(Header):
    """20-byte TCP header (no options) with the standard flag bits."""

    __slots__ = ("src_port", "dst_port", "seq", "ack", "flags", "window")
    wire_size = 20

    def __init__(
        self,
        src_port: int,
        dst_port: int,
        seq: int = 0,
        ack: int = 0,
        flags: int = 0,
        window: int = 65535,
    ):
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.window = window

    def flag_names(self) -> str:
        names = []
        for bit, name in ((TCP_SYN, "SYN"), (TCP_ACK, "ACK"), (TCP_FIN, "FIN"),
                          (TCP_RST, "RST"), (TCP_PSH, "PSH")):
            if self.flags & bit:
                names.append(name)
        return "|".join(names) or "-"

    def __repr__(self) -> str:
        return (
            f"<TCP {self.src_port}->{self.dst_port} {self.flag_names()} "
            f"seq={self.seq} ack={self.ack}>"
        )


def ip_header_for(src: Address, dst: Address, protocol: int, ttl: int = 64) -> Header:
    """Build the right IP header family for a src/dst address pair."""
    if isinstance(dst, Ipv6Address):
        if not isinstance(src, Ipv6Address):
            raise TypeError(f"address family mismatch: {src!r} vs {dst!r}")
        return Ipv6Header(src, dst, protocol, ttl)
    if isinstance(dst, Ipv4Address):
        if not isinstance(src, Ipv4Address):
            raise TypeError(f"address family mismatch: {src!r} vs {dst!r}")
        return Ipv4Header(src, dst, protocol, ttl)
    raise TypeError(f"unsupported address type {type(dst).__name__}")
