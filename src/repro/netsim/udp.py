"""UDP transport: connectionless datagram demux by destination port.

UDP carries most of the experiment series: DNS (Connman exploitation),
DHCPv6 (Dnsmasq exploitation) and the Mirai UDP-PLAIN flood itself.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, TYPE_CHECKING

from repro.netsim.address import Address
from repro.netsim.headers import PROTO_UDP, UdpHeader
from repro.netsim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netsim.ip import IpStack

#: handler(packet, udp_header, ip_header) -> None
UdpHandler = Callable[[Packet, UdpHeader, object], None]

EPHEMERAL_PORT_START = 49152


class Udp:
    """Per-node UDP: port bindings plus an optional promiscuous handler.

    The promiscuous handler backs the paper's customized TServer sink,
    which must count *all* flood traffic regardless of destination port.
    """

    def __init__(self, ip: "IpStack"):
        self.ip = ip
        self.bindings: Dict[int, UdpHandler] = {}
        self.default_handler: Optional[UdpHandler] = None
        self._next_ephemeral = EPHEMERAL_PORT_START
        self.rx_datagrams = 0
        self.rx_unreachable = 0

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------
    def bind(self, port: int, handler: UdpHandler) -> int:
        """Bind ``handler`` to ``port`` (0 allocates an ephemeral port)."""
        if port == 0:
            port = self.allocate_ephemeral_port()
        if port in self.bindings:
            raise OSError(f"{self.ip.node.name}: UDP port {port} already in use")
        self.bindings[port] = handler
        return port

    def unbind(self, port: int) -> None:
        self.bindings.pop(port, None)

    def allocate_ephemeral_port(self) -> int:
        while self._next_ephemeral in self.bindings:
            self._next_ephemeral += 1
        port = self._next_ephemeral
        self._next_ephemeral += 1
        return port

    def set_default_handler(self, handler: Optional[UdpHandler]) -> None:
        """Install a promiscuous handler for datagrams to unbound ports."""
        self.default_handler = handler

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------
    def send_datagram(
        self,
        payload: Optional[bytes],
        destination: Address,
        dst_port: int,
        src_port: int = 0,
        payload_size: Optional[int] = None,
        source: Optional[Address] = None,
        span: Optional[str] = None,
    ) -> bool:
        """Build a datagram, stamp its UDP header and pass it down to IP.

        ``span`` stamps the causal span ID onto the packet so queues and
        sinks can attribute drops/deliveries back to the originating
        attack (no-op downstream when span tracking is off).
        """
        ip = self.ip
        packet = Packet(payload, payload_size, created_at=ip.sim.now)
        if span is not None:
            packet.span = span
        packet.add_header(UdpHeader(src_port, dst_port))
        return ip.send(packet, destination, PROTO_UDP, source)

    def receive(self, packet: Packet, ip_header) -> None:
        header = packet.remove_header(UdpHeader)
        self.rx_datagrams += 1
        handler = self.bindings.get(header.dst_port)
        if handler is None:
            handler = self.default_handler
        if handler is None:
            self.rx_unreachable += 1
            return
        handler(packet, header, ip_header)
