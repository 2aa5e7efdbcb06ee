"""Unit tests for packets and the header stack."""

import pytest

from repro.netsim.address import Ipv4Address, Ipv6Address, MacAddress
from repro.netsim.headers import (
    EthernetHeader,
    Ipv4Header,
    Ipv6Header,
    TCP_ACK,
    TCP_SYN,
    TcpHeader,
    UdpHeader,
    ip_header_for,
)
from repro.netsim.packet import Packet


class TestPacketBasics:
    def test_payload_size_from_bytes(self):
        packet = Packet(b"hello")
        assert packet.payload_size == 5
        assert packet.size == 5

    def test_virtual_payload_size(self):
        packet = Packet(payload_size=512)
        assert packet.payload is None
        assert packet.size == 512

    def test_conflicting_sizes_rejected(self):
        with pytest.raises(ValueError):
            Packet(b"abc", payload_size=5)

    def test_uids_are_unique(self):
        assert Packet().uid != Packet().uid

    def test_size_includes_headers(self):
        packet = Packet(payload_size=100)
        packet.add_header(UdpHeader(1, 2))
        packet.add_header(
            Ipv6Header(Ipv6Address(1), Ipv6Address(2), next_header=17)
        )
        assert packet.size == 100 + 8 + 40


class TestPacketSizeCache:
    def test_size_tracks_header_pushes_and_pops(self):
        packet = Packet(payload_size=100)
        assert packet.size == 100
        packet.add_header(UdpHeader(1, 2))
        assert packet.size == 108
        packet.remove_header(UdpHeader)
        assert packet.size == 100

    def test_copy_carries_cached_size(self):
        packet = Packet(payload_size=64)
        packet.add_header(UdpHeader(1, 2))
        clone = packet.copy()
        assert clone.size == packet.size == 72


class TestHeaderStack:
    def test_lifo_remove(self):
        packet = Packet(payload_size=10)
        packet.add_header(UdpHeader(1, 2))
        packet.add_header(Ipv4Header(Ipv4Address(1), Ipv4Address(2), 17))
        ip_header = packet.remove_header(Ipv4Header)
        assert ip_header.protocol == 17
        udp_header = packet.remove_header(UdpHeader)
        assert udp_header.src_port == 1
        assert packet.size == 10

    def test_remove_wrong_type_raises(self):
        packet = Packet()
        packet.add_header(UdpHeader(1, 2))
        with pytest.raises(LookupError):
            packet.remove_header(Ipv4Header)

    def test_remove_from_empty_raises(self):
        with pytest.raises(LookupError):
            Packet().remove_header(UdpHeader)

    def test_peek_finds_without_removing(self):
        packet = Packet()
        packet.add_header(UdpHeader(7, 8))
        packet.add_header(Ipv6Header(Ipv6Address(1), Ipv6Address(2), 17))
        assert packet.peek_header(UdpHeader).src_port == 7
        assert len(packet.headers) == 2

    def test_peek_missing_returns_none(self):
        assert Packet().peek_header(TcpHeader) is None

    def test_copy_shares_header_objects_but_not_stack(self):
        packet = Packet(b"data")
        packet.add_header(UdpHeader(1, 2))
        clone = packet.copy()
        assert clone.uid != packet.uid
        assert clone.size == packet.size
        clone.remove_header(UdpHeader)
        assert len(packet.headers) == 1


class TestHeaders:
    def test_wire_sizes(self):
        assert EthernetHeader(MacAddress(1), MacAddress(2), 0x0800).wire_size == 14
        assert Ipv4Header(Ipv4Address(1), Ipv4Address(2), 6).wire_size == 20
        assert Ipv6Header(Ipv6Address(1), Ipv6Address(2), 6).wire_size == 40
        assert UdpHeader(1, 2).wire_size == 8
        assert TcpHeader(1, 2).wire_size == 20

    def test_ipv6_uniform_field_aliases(self):
        header = Ipv6Header(Ipv6Address(1), Ipv6Address(2), 17, hop_limit=9)
        assert header.protocol == 17
        assert header.ttl == 9
        header.ttl = 5
        assert header.hop_limit == 5

    def test_ip_header_for_matches_family(self):
        v6 = ip_header_for(Ipv6Address(1), Ipv6Address(2), 17)
        assert isinstance(v6, Ipv6Header)
        v4 = ip_header_for(Ipv4Address(1), Ipv4Address(2), 6)
        assert isinstance(v4, Ipv4Header)

    def test_ip_header_for_rejects_mixed_families(self):
        with pytest.raises(TypeError):
            ip_header_for(Ipv4Address(1), Ipv6Address(2), 17)

    def test_tcp_flag_names(self):
        header = TcpHeader(1, 2, flags=TCP_SYN | TCP_ACK)
        assert header.flag_names() == "SYN|ACK"
        assert TcpHeader(1, 2).flag_names() == "-"
