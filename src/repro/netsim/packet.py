"""Packets with an NS-3-style push/pop header stack.

A :class:`Packet` carries:

* ``payload`` — real application bytes (DNS messages, HTTP, C&C traffic)
  *or* ``None`` with an explicit ``payload_size`` for traffic whose bytes
  never get parsed (the UDP-PLAIN flood sends junk; modelling each junk
  byte would only burn memory — exactly the cost Table I of the paper
  attributes to NS-3, which we account for in
  :mod:`repro.core.resources` instead).
* a header stack — transport/network/link headers pushed on send and
  popped on receive, mirroring ``Packet::AddHeader``/``RemoveHeader``.

One packet object is one wire packet everywhere in the datapath.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Type, TypeVar

from repro.netsim.headers import Header

H = TypeVar("H", bound=Header)

_uid_counter = itertools.count(1)


class Packet:
    """A simulated packet.

    ``size`` always reflects the total wire size (payload plus all pushed
    headers), which is what links serialize and queues count.  It is a
    plain attribute maintained incrementally on header push/pop, since
    the flood datapath reads it at every queue/device/channel touch;
    callers must treat it as read-only.
    """

    __slots__ = ("uid", "payload", "payload_size", "headers", "created_at",
                 "span", "size")

    def __init__(
        self,
        payload: Optional[bytes] = None,
        payload_size: Optional[int] = None,
        created_at: float = 0.0,
    ):
        if payload is not None and payload_size is not None and payload_size != len(payload):
            raise ValueError("payload_size conflicts with actual payload length")
        self.uid = next(_uid_counter)
        self.payload = payload
        if payload is not None:
            self.payload_size = len(payload)
        else:
            self.payload_size = payload_size or 0
        self.headers: List[Header] = []
        self.created_at = created_at
        # Originating causal span ID (stamped by senders when span
        # tracking is on); queues and sinks attribute drops/deliveries
        # back through it.
        self.span: Optional[str] = None
        #: wire size in bytes: payload plus all pushed headers
        self.size: int = self.payload_size

    # ------------------------------------------------------------------
    # Header stack
    # ------------------------------------------------------------------
    def add_header(self, header: Header) -> None:
        """Push ``header`` on top of the stack (outermost last)."""
        self.headers.append(header)
        self.size += header.wire_size

    def remove_header(self, header_type: Type[H]) -> H:
        """Pop the top header, asserting it is of ``header_type``."""
        if not self.headers:
            raise LookupError(f"packet {self.uid} has no headers to remove")
        top = self.headers[-1]
        if not isinstance(top, header_type):
            raise LookupError(
                f"top header is {type(top).__name__}, expected {header_type.__name__}"
            )
        self.headers.pop()
        self.size -= top.wire_size
        return top

    def peek_header(self, header_type: Type[H]) -> Optional[H]:
        """Find the outermost header of ``header_type`` without removing it."""
        for header in reversed(self.headers):
            if isinstance(header, header_type):
                return header
        return None

    def copy(self) -> "Packet":
        """Shallow-copy the packet with a fresh uid (headers are shared
        immutably-by-convention; multicast fan-out re-stacks its own)."""
        clone = Packet(self.payload, None if self.payload is not None else self.payload_size,
                       self.created_at)
        clone.headers = list(self.headers)
        clone.span = self.span
        clone.size = self.size
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        stack = "/".join(type(header).__name__ for header in reversed(self.headers))
        return f"<Packet #{self.uid} {self.size}B [{stack or 'raw'}]>"

