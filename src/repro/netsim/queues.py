"""Transmit queues for net devices.

The paper's Figure 2 attributes the sublinear growth of received data rate
to "congestion and collisions stemming from elevated network traffic";
in this simulator that behaviour emerges from finite-rate links draining
drop-tail queues — same mechanism NS-3's ``DropTailQueue`` provides.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.netsim.packet import Packet
from repro.obs.metrics import NULL_INSTRUMENT
from repro.obs.spans import NULL_SPANS
from repro.obs.trace import NULL_TRACER


class DropTailQueue:
    """A FIFO packet queue with a fixed capacity; overflow drops the tail.

    Capacity may be expressed in packets (NS-3's default mode) or bytes.
    """

    def __init__(self, max_packets: int = 100, max_bytes: Optional[int] = None):
        if max_packets <= 0:
            raise ValueError("queue capacity must be positive")
        self._queue: Deque[Packet] = deque()
        self.max_packets = max_packets
        self.max_bytes = max_bytes
        self.packets_queued = 0
        self.bytes_queued = 0
        self.enqueued = 0
        self.dropped = 0
        # Observability bindings; the owning NetDevice wires these via
        # bind_observatory (queues alone have no simulator reference).
        self.name = ""
        self._sim = None
        self._tracer = NULL_TRACER
        self._spans = NULL_SPANS
        self._drop_counter = NULL_INSTRUMENT

    def bind_observatory(self, sim, name: str) -> None:
        """Bind drop accounting to ``sim``'s observatory under ``name``."""
        self.name = name
        self._sim = sim
        self._tracer = sim.obs.tracer
        self._spans = sim.obs.spans
        self._drop_counter = sim.obs.metrics.counter(
            "queue_drops_total", help="packets dropped by transmit queues"
        )

    def __len__(self) -> int:
        """Queued packet count."""
        return self.packets_queued

    @property
    def empty(self) -> bool:
        return not self._queue

    def enqueue(self, packet: Packet) -> bool:
        """Add ``packet``; returns False (and counts the drop) on overflow."""
        if self.packets_queued >= self.max_packets:
            self._record_drop(packet, "overflow_packets")
            return False
        size = packet.size
        if self.max_bytes is not None and self.bytes_queued + size > self.max_bytes:
            self._record_drop(packet, "overflow_bytes")
            return False
        self._queue.append(packet)
        self.packets_queued += 1
        self.bytes_queued += size
        self.enqueued += 1
        return True

    def dequeue(self) -> Optional[Packet]:
        """Remove and return the head packet, or None when empty."""
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self.packets_queued -= 1
        self.bytes_queued -= packet.size
        return packet

    def clear(self) -> int:
        """Drop everything queued (link went down); returns packets lost."""
        lost = self.packets_queued
        self.dropped += lost
        if lost:
            self._drop_counter.inc(lost)
            if self._spans.enabled:
                for packet in self._queue:
                    if packet.span is not None:
                        self._spans.drop(packet.span)
            if self._tracer.enabled and self._sim is not None:
                self._tracer.emit(
                    "queue.drop", self._sim.now,
                    queue=self.name, reason="link_down", lost=lost,
                )
        self._queue.clear()
        self.packets_queued = 0
        self.bytes_queued = 0
        return lost

    def fluid_drop(self, count: int, size: int, reason: str,
                   span=None) -> None:
        """Account ``count`` analytically-dropped flow packets.

        The fluid datapath (:mod:`repro.netsim.flows`) computes drop
        fractions in closed form; this routes the quantized result into
        the same counters, span attribution and trace stream the packet
        path's :meth:`_record_drop` feeds, so ``queue_drops_total`` and
        causal drop accounting stay exact in expectation.
        """
        if count <= 0:
            return
        self.dropped += count
        self._drop_counter.inc(count)
        if span is not None:
            self._spans.drop(span, count)
        if self._tracer.enabled and self._sim is not None:
            if span is not None:
                self._tracer.emit(
                    "queue.drop", self._sim.now,
                    queue=self.name, reason=reason, size=size,
                    lost=count, depth=self.packets_queued, span=span,
                )
            else:
                self._tracer.emit(
                    "queue.drop", self._sim.now,
                    queue=self.name, reason=reason, size=size,
                    lost=count, depth=self.packets_queued,
                )

    def checkpoint_state(self) -> dict:
        """Deterministic queue contents + counters for fingerprinting.

        Entries are described by their sizes — ``Packet.uid`` comes
        from a process-global counter and must never be hashed.
        """
        return {
            "name": self.name,
            "depth": self.packets_queued,
            "bytes": self.bytes_queued,
            "enqueued": self.enqueued,
            "dropped": self.dropped,
            "entries": [p.size for p in self._queue],
        }

    def _record_drop(self, packet: Packet, reason: str) -> None:
        self.dropped += 1
        self._drop_counter.inc()
        span = packet.span
        if span is not None:
            self._spans.drop(span)
        if self._tracer.enabled and self._sim is not None:
            if span is not None:
                self._tracer.emit(
                    "queue.drop", self._sim.now,
                    queue=self.name, reason=reason, size=packet.size,
                    lost=1, depth=self.packets_queued, span=span,
                )
            else:
                self._tracer.emit(
                    "queue.drop", self._sim.now,
                    queue=self.name, reason=reason, size=packet.size,
                    lost=1, depth=self.packets_queued,
                )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<DropTailQueue {self.packets_queued}/{self.max_packets} pkts "
            f"{self.bytes_queued}B dropped={self.dropped}>"
        )
