"""Unit + property tests for drop-tail queues."""

import pytest
from hypothesis import given, strategies as st

from repro.netsim.packet import Packet
from repro.netsim.queues import DropTailQueue


class TestDropTailQueue:
    def test_fifo_order(self):
        queue = DropTailQueue(max_packets=10)
        packets = [Packet(payload_size=i + 1) for i in range(3)]
        for packet in packets:
            assert queue.enqueue(packet)
        assert [queue.dequeue() for _ in range(3)] == packets

    def test_dequeue_empty_returns_none(self):
        assert DropTailQueue().dequeue() is None

    def test_overflow_drops_tail(self):
        queue = DropTailQueue(max_packets=2)
        assert queue.enqueue(Packet(payload_size=1))
        assert queue.enqueue(Packet(payload_size=1))
        assert not queue.enqueue(Packet(payload_size=1))
        assert queue.dropped == 1
        assert len(queue) == 2

    def test_byte_capacity(self):
        queue = DropTailQueue(max_packets=100, max_bytes=100)
        assert queue.enqueue(Packet(payload_size=60))
        assert not queue.enqueue(Packet(payload_size=60))
        assert queue.dropped == 1

    def test_byte_accounting(self):
        queue = DropTailQueue()
        queue.enqueue(Packet(payload_size=10))
        queue.enqueue(Packet(payload_size=20))
        assert queue.bytes_queued == 30
        queue.dequeue()
        assert queue.bytes_queued == 20

    def test_clear_counts_losses(self):
        queue = DropTailQueue()
        for _ in range(4):
            queue.enqueue(Packet(payload_size=5))
        lost = queue.clear()
        assert lost == 4
        assert queue.dropped == 4
        assert queue.empty
        assert queue.bytes_queued == 0

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            DropTailQueue(max_packets=0)

    def test_fluid_drop_feeds_same_counters(self):
        """The analytic datapath's drop hook shares the packet path's
        accounting: queue.dropped and the drop counter both move."""
        queue = DropTailQueue(max_packets=10)
        queue.fluid_drop(7, 560, "overflow_fluid")
        assert queue.dropped == 7
        queue.fluid_drop(0, 560, "overflow_fluid")  # no-op
        assert queue.dropped == 7

    @given(st.lists(st.integers(min_value=1, max_value=2000), max_size=60),
           st.integers(min_value=1, max_value=20))
    def test_invariants_property(self, sizes, capacity):
        """Length never exceeds capacity; enqueued == dequeued + queued +
        dropped; byte counter matches contents."""
        queue = DropTailQueue(max_packets=capacity)
        dequeued = 0
        for index, size in enumerate(sizes):
            queue.enqueue(Packet(payload_size=size))
            if index % 3 == 2 and queue.dequeue() is not None:
                dequeued += 1
            assert len(queue) <= capacity
        assert queue.enqueued == dequeued + len(queue)
        assert queue.enqueued + queue.dropped == len(sizes)
        remaining_bytes = 0
        while True:
            packet = queue.dequeue()
            if packet is None:
                break
            remaining_bytes += packet.size
        assert queue.bytes_queued == 0
        assert remaining_bytes >= 0

    @given(st.lists(st.one_of(st.integers(min_value=1, max_value=400),
                              st.none()), max_size=80),
           st.integers(min_value=1, max_value=20),
           st.integers(min_value=1, max_value=4000))
    def test_caps_property(self, ops, max_packets, max_bytes):
        """Single packets against packet and byte caps (``None`` in
        ``ops`` dequeues one): admitted + dropped == offered, the byte
        counter never exceeds the cap, and every drop names the cap that
        refused it — the packet cap when both are full."""
        queue = DropTailQueue(max_packets=max_packets, max_bytes=max_bytes)
        reasons = []
        record_drop = queue._record_drop

        def note_drop(packet, reason):
            reasons.append(reason)
            record_drop(packet, reason)

        queue._record_drop = note_drop
        offered = 0
        for size in ops:
            if size is None:
                queue.dequeue()
                continue
            offered += 1
            if len(queue) >= max_packets:
                expected = "overflow_packets"
            elif queue.bytes_queued + size > max_bytes:
                expected = "overflow_bytes"
            else:
                expected = None
            drops_before = len(reasons)
            admitted = queue.enqueue(Packet(payload_size=size))
            assert admitted == (expected is None)
            assert reasons[drops_before:] == ([] if admitted else [expected])
            assert queue.bytes_queued <= max_bytes
            assert len(queue) <= max_packets
        assert queue.enqueued + queue.dropped == offered
        assert queue.dropped == len(reasons)
