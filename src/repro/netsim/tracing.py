"""Traffic tracing: flow statistics and packet capture.

The paper installs Wireshark on the hardware TServer and uses NS-3's
analysis hooks on the simulated one.  :class:`FlowMonitor` taps a node's
IP delivery path and aggregates per-flow statistics;
:class:`PacketCapture` records (bounded) per-packet metadata, which the
ML-detection use case (§V-A1) consumes as its feature source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.netsim.headers import TcpHeader, UdpHeader
from repro.netsim.node import Node


@dataclass
class FlowStats:
    """Aggregated statistics for one (src, dst, proto, sport, dport) flow."""

    packets: int = 0
    bytes: int = 0
    first_time: float = 0.0
    last_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.last_time - self.first_time

    def mean_rate_bps(self) -> float:
        """Average flow rate in bits/second (0 for single-packet flows)."""
        if self.duration <= 0:
            return 0.0
        return self.bytes * 8.0 / self.duration


FlowKey = Tuple[object, object, int, int, int]


class FlowMonitor:
    """Taps a node's IP delivery path and keys stats by 5-tuple.

    Call :meth:`close` (or :meth:`detach`) when done: the tap holds a
    reference on the node's delivery path, so monitors created in a loop
    over many runs otherwise keep observing — and keep their host
    objects alive — forever.
    """

    def __init__(self, node: Node):
        self.node = node
        self.sim = node.sim
        self.flows: Dict[FlowKey, FlowStats] = {}
        self._attached = True
        node.ip.delivery_taps.append(self._tap)

    def detach(self) -> None:
        """Stop observing; collected statistics remain readable."""
        if self._attached:
            self._attached = False
            try:
                self.node.ip.delivery_taps.remove(self._tap)
            except ValueError:
                pass

    close = detach

    def __enter__(self) -> "FlowMonitor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.detach()

    def _tap(self, packet, ip_header) -> None:
        sport = dport = 0
        transport = packet.peek_header(UdpHeader) or packet.peek_header(TcpHeader)
        if transport is not None:
            sport, dport = transport.src_port, transport.dst_port
        key = (ip_header.src, ip_header.dst, ip_header.protocol, sport, dport)
        stats = self.flows.get(key)
        now = self.sim.now
        if stats is None:
            stats = FlowStats(first_time=now, last_time=now)
            self.flows[key] = stats
        stats.packets += 1
        stats.bytes += packet.size
        stats.last_time = now

    def total_bytes(self) -> int:
        return sum(stats.bytes for stats in self.flows.values())

    def total_packets(self) -> int:
        return sum(stats.packets for stats in self.flows.values())


@dataclass
class CapturedPacket:
    """One packet-capture record (metadata only, like a pcap header)."""

    time: float
    src: object
    dst: object
    protocol: int
    src_port: int
    dst_port: int
    size: int


class PacketCapture:
    """Bounded per-packet capture on a node's delivery path.

    Like :class:`FlowMonitor`, the capture taps the node until
    :meth:`close`/:meth:`detach` is called; records stay readable after.
    """

    def __init__(self, node: Node, max_records: int = 1_000_000):
        self.node = node
        self.sim = node.sim
        self.max_records = max_records
        self.records: List[CapturedPacket] = []
        self.truncated = False
        self._attached = True
        node.ip.delivery_taps.append(self._tap)

    def detach(self) -> None:
        """Stop capturing; collected records remain readable."""
        if self._attached:
            self._attached = False
            try:
                self.node.ip.delivery_taps.remove(self._tap)
            except ValueError:
                pass

    close = detach

    def __enter__(self) -> "PacketCapture":
        return self

    def __exit__(self, *exc_info) -> None:
        self.detach()

    def _tap(self, packet, ip_header) -> None:
        if len(self.records) >= self.max_records:
            self.truncated = True
            return
        sport = dport = 0
        transport = packet.peek_header(UdpHeader) or packet.peek_header(TcpHeader)
        if transport is not None:
            sport, dport = transport.src_port, transport.dst_port
        self.records.append(
            CapturedPacket(
                time=self.sim.now,
                src=ip_header.src,
                dst=ip_header.dst,
                protocol=ip_header.protocol,
                src_port=sport,
                dst_port=dport,
                size=packet.size,
            )
        )

    def between(self, start: float, end: float) -> List[CapturedPacket]:
        return [record for record in self.records if start <= record.time < end]

    def to_csv(self) -> str:
        """Export the capture as CSV (the 'open it in Wireshark' analogue
        for downstream tooling)."""
        lines = ["time,src,dst,protocol,src_port,dst_port,size"]
        for record in self.records:
            lines.append(
                f"{record.time:.6f},{record.src},{record.dst},"
                f"{record.protocol},{record.src_port},{record.dst_port},"
                f"{record.size}"
            )
        return "\n".join(lines) + "\n"
