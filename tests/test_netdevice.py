"""Unit tests for point-to-point devices, channels and link dynamics."""

import pytest

from repro.netsim.channel import PointToPointChannel
from repro.netsim.netdevice import PointToPointDevice
from repro.netsim.packet import Packet
from repro.netsim.queues import DropTailQueue


def make_link(sim, rate_a=1e6, rate_b=1e6, delay=0.01, queue_a=None):
    channel = PointToPointChannel(sim, delay=delay)
    dev_a = PointToPointDevice(
        sim, rate_a, queue_a if queue_a is not None else DropTailQueue(), name="a"
    )
    dev_b = PointToPointDevice(sim, rate_b, name="b")
    channel.attach(dev_a)
    channel.attach(dev_b)
    return dev_a, dev_b, channel


class TestTransmission:
    def test_packet_arrives_after_serialization_plus_propagation(self, sim):
        dev_a, dev_b, _ = make_link(sim, rate_a=1e6, delay=0.05)
        arrivals = []
        dev_b.receive = lambda packet: arrivals.append(sim.now)
        dev_a.send(Packet(payload_size=1250))  # 10 000 bits @ 1 Mbps = 10 ms
        sim.run()
        assert arrivals == [pytest.approx(0.01 + 0.05)]

    def test_back_to_back_packets_serialize_sequentially(self, sim):
        dev_a, dev_b, _ = make_link(sim, rate_a=1e6, delay=0.0)
        arrivals = []
        dev_b.receive = lambda packet: arrivals.append(sim.now)
        for _ in range(3):
            dev_a.send(Packet(payload_size=1250))
        sim.run()
        assert arrivals == [pytest.approx(0.01 * k) for k in (1, 2, 3)]

    def test_throughput_bounded_by_data_rate(self, sim):
        dev_a, dev_b, _ = make_link(sim, rate_a=8e5, delay=0.0,
                                    queue_a=DropTailQueue(max_packets=1000))
        received_bytes = []
        dev_b.receive = lambda packet: received_bytes.append(packet.size)
        for _ in range(100):
            dev_a.send(Packet(payload_size=1000))
        sim.run(until=0.5)  # 800 kbps * 0.5 s = 50 kB = 50 packets
        assert 48 <= len(received_bytes) <= 51

    def test_counters(self, sim):
        dev_a, dev_b, channel = make_link(sim)
        dev_a.send(Packet(payload_size=100))
        sim.run()
        assert dev_a.tx_packets == 1
        assert dev_a.tx_bytes == 100
        assert dev_b.rx_packets == 1
        assert channel.packets_carried == 1

    def test_queue_overflow_counts_drops(self, sim):
        queue = DropTailQueue(max_packets=2)
        dev_a, dev_b, _ = make_link(sim, rate_a=1e3, queue_a=queue)
        for _ in range(10):
            dev_a.send(Packet(payload_size=1000))
        assert queue.dropped > 0


class TestLinkState:
    def test_down_device_drops_sends(self, sim):
        dev_a, dev_b, _ = make_link(sim)
        dev_a.set_down()
        assert not dev_a.send(Packet(payload_size=10))
        assert dev_a.drops_down == 1

    def test_down_device_drops_receives(self, sim):
        dev_a, dev_b, _ = make_link(sim)
        dev_b.set_down()
        dev_a.send(Packet(payload_size=10))
        sim.run()
        assert dev_b.rx_packets == 0
        assert dev_b.drops_down == 1

    def test_going_down_clears_queue(self, sim):
        queue = DropTailQueue()
        dev_a, _, _ = make_link(sim, rate_a=1e3, queue_a=queue)
        for _ in range(5):
            dev_a.send(Packet(payload_size=1000))
        dev_a.set_down()
        assert queue.empty

    def test_link_recovers_after_up(self, sim):
        dev_a, dev_b, _ = make_link(sim)
        dev_a.set_down()
        dev_a.set_up()
        assert dev_a.send(Packet(payload_size=10))
        sim.run()
        assert dev_b.rx_packets == 1


class TestChannel:
    def test_third_attachment_rejected(self, sim):
        _, _, channel = make_link(sim)
        with pytest.raises(ValueError):
            channel.attach(PointToPointDevice(sim, 1e6))

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            PointToPointChannel(sim, delay=-1.0)

    def test_peer_resolved_at_attach(self, sim):
        dev_a, dev_b, channel = make_link(sim)
        assert channel.peer_of(dev_a) is dev_b
        assert channel.peer_of(dev_b) is dev_a

    def test_half_wired_channel_refuses_to_transmit(self, sim):
        channel = PointToPointChannel(sim)
        device = PointToPointDevice(sim, 1e6)
        channel.attach(device)
        assert channel.peer_of(device) is None
        with pytest.raises(RuntimeError, match="not fully wired"):
            channel.transmit(device, Packet(payload_size=10))

    def test_lossy_channel_drops_fraction(self, sim):
        import random

        channel = PointToPointChannel(sim, delay=0.0, loss_rate=0.5,
                                      rng=random.Random(1))
        dev_a = PointToPointDevice(sim, 1e9, DropTailQueue(max_packets=500))
        dev_b = PointToPointDevice(sim, 1e9)
        channel.attach(dev_a)
        channel.attach(dev_b)
        received = []
        dev_b.receive = lambda packet: received.append(packet)
        for _ in range(200):
            dev_a.send(Packet(payload_size=10))
        sim.run()
        assert 60 <= len(received) <= 140  # ~100 expected
        assert channel.packets_lost + channel.packets_carried == 200

    def test_invalid_loss_rate_rejected(self, sim):
        with pytest.raises(ValueError):
            PointToPointChannel(sim, loss_rate=1.5)

    def test_data_rate_must_be_positive(self, sim):
        with pytest.raises(ValueError):
            PointToPointDevice(sim, 0)
