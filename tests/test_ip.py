"""Unit tests for the dual-stack IP layer: routing, TTL, multicast."""

import pytest

from repro.netsim.address import (
    ALL_DHCP_RELAY_AGENTS_AND_SERVERS,
    Ipv4Address,
    Ipv6Address,
)
from repro.netsim.headers import PROTO_UDP, Ipv6Header, UdpHeader
from repro.netsim.node import Node
from repro.netsim.packet import Packet
from repro.netsim.topology import StarInternet


def send_udp(node, destination, payload_size=10, dst_port=9, src_port=1000):
    packet = Packet(payload_size=payload_size)
    packet.add_header(UdpHeader(src_port, dst_port))
    return node.ip.send(packet, destination, PROTO_UDP)


def capture_udp(node, port=9):
    received = []
    node.udp.bind(port, lambda packet, udp, ip: received.append((packet, udp, ip)))
    return received


class TestAddressing:
    def test_duplicate_address_rejected(self, sim, star):
        node = Node(sim, "n")
        link = star.attach_host(node, 1e6)
        with pytest.raises(ValueError):
            node.ip.add_address(link.host_device, link.ipv6)

    @pytest.mark.parametrize("group", [
        ALL_DHCP_RELAY_AGENTS_AND_SERVERS, Ipv4Address.parse("224.0.0.1"),
    ], ids=["ipv6", "ipv4"])
    def test_multicast_address_rejected(self, sim, star, group):
        node = Node(sim, "n")
        link = star.attach_host(node, 1e6)
        with pytest.raises(ValueError, match="multicast"):
            node.ip.add_address(link.host_device, group)
        assert group not in node.ip.addresses

    def test_primary_address_per_family(self, sim, star):
        node = Node(sim, "n")
        star.attach_host(node, 1e6)
        assert isinstance(node.primary_address(want_ipv6=True), Ipv6Address)
        assert isinstance(node.primary_address(want_ipv6=False), Ipv4Address)

    def test_primary_address_missing_family(self, sim):
        node = Node(sim, "lonely")
        assert node.primary_address() is None


class TestDelivery:
    def test_ipv6_end_to_end(self, sim, two_hosts):
        node_a, node_b, star = two_hosts
        received = capture_udp(node_b)
        send_udp(node_a, star.address_of(node_b))
        sim.run()
        assert len(received) == 1
        _packet, udp_header, ip_header = received[0]
        assert udp_header.dst_port == 9
        assert ip_header.src == star.address_of(node_a)

    def test_ipv4_end_to_end(self, sim, two_hosts):
        node_a, node_b, star = two_hosts
        received = capture_udp(node_b)
        send_udp(node_a, star.address_of(node_b, want_ipv6=False))
        sim.run()
        assert len(received) == 1

    def test_loopback_delivery(self, sim, two_hosts):
        node_a, _, star = two_hosts
        received = capture_udp(node_a)
        send_udp(node_a, star.address_of(node_a))
        sim.run()
        assert len(received) == 1
        # Loopback never touches the wire.
        assert node_a.devices[0].tx_packets == 0

    def test_send_without_any_address_raises(self, sim):
        node = Node(sim, "isolated")
        with pytest.raises(RuntimeError):
            send_udp(node, Ipv6Address.parse("2001:db8::99"))

    def test_send_without_route_counted(self, sim, star):
        node = Node(sim, "n")
        link = star.attach_host(node, 1e6)
        node.ip.default_device = None
        node.ip.routes.clear()
        assert not send_udp(node, Ipv6Address.parse("2001:db8::99"))
        assert node.ip.dropped_no_route == 1

    def test_router_forwards_between_hosts(self, sim, two_hosts):
        node_a, node_b, star = two_hosts
        received = capture_udp(node_b)
        send_udp(node_a, star.address_of(node_b))
        sim.run()
        assert star.router.ip.forwarded == 1

    def test_host_does_not_forward(self, sim, two_hosts):
        node_a, node_b, star = two_hosts
        # Hand node_a a packet addressed elsewhere: it must drop it.
        packet = Packet(payload_size=10)
        packet.add_header(UdpHeader(1, 2))
        from repro.netsim.headers import Ipv6Header

        packet.add_header(
            Ipv6Header(star.address_of(node_b), Ipv6Address.parse("2001:db8::dead"), PROTO_UDP)
        )
        before = node_a.ip.dropped_no_route
        node_a.ip.receive(packet, node_a.devices[0])
        assert node_a.ip.dropped_no_route == before + 1


class TestTtl:
    def test_forwarding_decrements_ttl(self, sim, two_hosts):
        node_a, node_b, star = two_hosts
        received = capture_udp(node_b)
        packet = Packet(payload_size=10)
        packet.add_header(UdpHeader(1000, 9))
        node_a.ip.send(packet, star.address_of(node_b), PROTO_UDP, ttl=5)
        sim.run()
        assert len(received) == 1
        assert received[0][2].ttl == 4

    def test_expired_ttl_dropped_at_router(self, sim, two_hosts):
        node_a, node_b, star = two_hosts
        received = capture_udp(node_b)
        packet = Packet(payload_size=10)
        packet.add_header(UdpHeader(1000, 9))
        node_a.ip.send(packet, star.address_of(node_b), PROTO_UDP, ttl=1)
        sim.run()
        assert received == []
        assert star.router.ip.dropped_ttl == 1


class TestMulticast:
    def test_join_requires_multicast_group(self, sim, two_hosts):
        node_a, _, _ = two_hosts
        with pytest.raises(ValueError):
            node_a.ip.join_multicast(Ipv6Address.parse("2001:db8::1"))

    def test_multicast_reaches_joined_members(self, sim, star):
        sender = Node(sim, "sender")
        members = [Node(sim, f"member{i}") for i in range(3)]
        star.attach_host(sender, 1e6)
        received = {}
        for member in members:
            star.attach_host(member, 1e6, dhcp6_multicast_member=True)
            member.ip.join_multicast(ALL_DHCP_RELAY_AGENTS_AND_SERVERS)
            received[member.name] = capture_udp(member, port=547)
        packet = Packet(payload_size=20)
        packet.add_header(UdpHeader(546, 547))
        sender.ip.send(packet, ALL_DHCP_RELAY_AGENTS_AND_SERVERS, PROTO_UDP)
        sim.run()
        assert all(len(inbox) == 1 for inbox in received.values())

    def test_multicast_skips_non_members(self, sim, star):
        sender = Node(sim, "sender")
        member = Node(sim, "member")
        outsider = Node(sim, "outsider")
        star.attach_host(sender, 1e6)
        star.attach_host(member, 1e6, dhcp6_multicast_member=True)
        star.attach_host(outsider, 1e6)  # not in the fan-out list
        member.ip.join_multicast(ALL_DHCP_RELAY_AGENTS_AND_SERVERS)
        member_inbox = capture_udp(member, 547)
        outsider_inbox = capture_udp(outsider, 547)
        packet = Packet(payload_size=20)
        packet.add_header(UdpHeader(546, 547))
        sender.ip.send(packet, ALL_DHCP_RELAY_AGENTS_AND_SERVERS, PROTO_UDP)
        sim.run()
        assert len(member_inbox) == 1
        assert outsider_inbox == []

    def test_sender_in_group_self_delivers(self, sim, star):
        sender = Node(sim, "sender")
        star.attach_host(sender, 1e6, dhcp6_multicast_member=True)
        sender.ip.join_multicast(ALL_DHCP_RELAY_AGENTS_AND_SERVERS)
        inbox = capture_udp(sender, 547)
        packet = Packet(payload_size=20)
        packet.add_header(UdpHeader(546, 547))
        sender.ip.send(packet, ALL_DHCP_RELAY_AGENTS_AND_SERVERS, PROTO_UDP)
        sim.run()
        assert len(inbox) == 1

    def test_leave_multicast_stops_delivery(self, sim, star):
        member = Node(sim, "member")
        sender = Node(sim, "sender")
        star.attach_host(sender, 1e6)
        star.attach_host(member, 1e6, dhcp6_multicast_member=True)
        member.ip.join_multicast(ALL_DHCP_RELAY_AGENTS_AND_SERVERS)
        member.ip.leave_multicast(ALL_DHCP_RELAY_AGENTS_AND_SERVERS)
        inbox = capture_udp(member, 547)
        packet = Packet(payload_size=20)
        packet.add_header(UdpHeader(546, 547))
        sender.ip.send(packet, ALL_DHCP_RELAY_AGENTS_AND_SERVERS, PROTO_UDP)
        sim.run()
        assert inbox == []
