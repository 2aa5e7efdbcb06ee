"""The TServer component (paper §II-C / §III-C).

"We use an NS-3 node to represent TServer, where we implement a
customized sink application capable of receiving data transmitted from
any source within the simulated network" — exactly what
:class:`repro.netsim.sink.PacketSink` does; this wrapper adds the access
link (whose finite downlink rate is the DDoS bottleneck).  Per-flow
analysis reads the sink's NetFlow records (``sink.flows``).
"""

from __future__ import annotations

from repro.core.config import SimulationConfig
from repro.netsim.node import Node
from repro.netsim.sink import PacketSink
from repro.netsim.topology import StarInternet


class TServerComponent:
    """The target server: node + promiscuous sink (with per-flow stats)."""

    def __init__(self, config: SimulationConfig, sim, star: StarInternet):
        self.config = config
        self.node = Node(sim, "tserver")
        self.link = star.attach_host(
            self.node,
            config.tserver_rate_bps,
            config.tserver_link_delay,
            queue_packets=config.queue_packets,
        )
        self.address = self.link.ipv6
        self.sink = PacketSink(self.node)

    def start(self) -> None:
        self.sink.start()

    @property
    def downlink_queue_drops(self) -> int:
        """Packets the bottleneck (router->TServer) queue shed."""
        return self.link.router_device.queue.dropped
