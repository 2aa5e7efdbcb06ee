"""Network addresses: MAC, IPv4 and IPv6 (with multicast support).

The paper stresses that DDoSim added IPv6 support to NS3DockerEmulator
because Dnsmasq's CVE-2017-14493 lives in the DHCPv6 module and DHCPv6
exploit delivery needs IPv6 *multicast* (there is no broadcast in IPv6).
This module therefore implements both families from scratch, including the
``ff02::1:2`` All-DHCP-Relay-Agents-and-Servers group used by the attack.

Addresses are small immutable value objects wrapping an integer, cheap to
hash and compare (they are used as routing-table keys on the hot path, so
each caches its hash at construction).
"""

from __future__ import annotations

from typing import Iterator, Tuple, Union


class AddressError(ValueError):
    """Raised for malformed textual or numeric addresses."""


class _IntAddress:
    """Shared machinery for fixed-width integer-backed addresses."""

    # ``_hash`` is derived from ints only, so it is the same in every
    # process (no PYTHONHASHSEED dependence) and survives pickling.
    __slots__ = ("_value", "_hash")
    BITS: int = 0

    def __init__(self, value: int):
        limit = 1 << self.BITS
        if not 0 <= value < limit:
            raise AddressError(
                f"{type(self).__name__} value {value:#x} out of range (0..2^{self.BITS})"
            )
        self._value = value
        self._hash = hash((self.BITS, value))

    @property
    def value(self) -> int:
        """The raw integer value of the address."""
        return self._value

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other._value == self._value  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "_IntAddress") -> bool:
        if type(other) is not type(self):
            raise TypeError(f"cannot order {type(self).__name__} against {type(other).__name__}")
        return self._value < other._value

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"


class MacAddress(_IntAddress):
    """A 48-bit IEEE 802 MAC address."""

    BITS = 48
    _counter = 0

    @classmethod
    def parse(cls, text: str) -> "MacAddress":
        parts = text.split(":")
        if len(parts) != 6:
            raise AddressError(f"malformed MAC address {text!r}")
        try:
            octets = [int(part, 16) for part in parts]
        except ValueError as exc:
            raise AddressError(f"malformed MAC address {text!r}") from exc
        if any(not 0 <= octet <= 0xFF for octet in octets):
            raise AddressError(f"malformed MAC address {text!r}")
        value = 0
        for octet in octets:
            value = (value << 8) | octet
        return cls(value)

    @classmethod
    def allocate(cls) -> "MacAddress":
        """Allocate the next locally administered MAC (02:00:00:...)."""
        cls._counter += 1
        return cls((0x02 << 40) | cls._counter)

    def __str__(self) -> str:
        octets = [(self._value >> shift) & 0xFF for shift in range(40, -8, -8)]
        return ":".join(f"{octet:02x}" for octet in octets)


class Ipv4Address(_IntAddress):
    """A 32-bit IPv4 address (dotted-quad text form)."""

    BITS = 32

    @classmethod
    def parse(cls, text: str) -> "Ipv4Address":
        parts = text.split(".")
        if len(parts) != 4:
            raise AddressError(f"malformed IPv4 address {text!r}")
        value = 0
        for part in parts:
            if not part.isdigit():
                raise AddressError(f"malformed IPv4 address {text!r}")
            octet = int(part)
            if octet > 255 or (len(part) > 1 and part[0] == "0"):
                raise AddressError(f"malformed IPv4 address {text!r}")
            value = (value << 8) | octet
        return cls(value)

    @property
    def is_multicast(self) -> bool:
        """True for 224.0.0.0/4."""
        return (self._value >> 28) == 0xE

    @property
    def is_broadcast(self) -> bool:
        return self._value == 0xFFFFFFFF

    def __str__(self) -> str:
        return ".".join(
            str((self._value >> shift) & 0xFF) for shift in (24, 16, 8, 0)
        )


class Ipv6Address(_IntAddress):
    """A 128-bit IPv6 address with RFC 5952 text formatting.

    Implements the ``::`` zero-run compression on output and accepts both
    compressed and full forms on input.  Multicast (``ff00::/8``) is
    first-class because DHCPv6 exploit delivery multicasts to
    :data:`ALL_DHCP_RELAY_AGENTS_AND_SERVERS`.
    """

    BITS = 128

    @classmethod
    def parse(cls, text: str) -> "Ipv6Address":
        if text.count("::") > 1:
            raise AddressError(f"malformed IPv6 address {text!r}")
        if "::" in text:
            head_text, tail_text = text.split("::", 1)
            head = head_text.split(":") if head_text else []
            tail = tail_text.split(":") if tail_text else []
            missing = 8 - len(head) - len(tail)
            if missing < 1:
                raise AddressError(f"malformed IPv6 address {text!r}")
            groups = head + ["0"] * missing + tail
        else:
            groups = text.split(":")
        if len(groups) != 8:
            raise AddressError(f"malformed IPv6 address {text!r}")
        value = 0
        for group in groups:
            if not group or len(group) > 4:
                raise AddressError(f"malformed IPv6 address {text!r}")
            try:
                word = int(group, 16)
            except ValueError as exc:
                raise AddressError(f"malformed IPv6 address {text!r}") from exc
            value = (value << 16) | word
        return cls(value)

    @property
    def groups(self) -> Tuple[int, ...]:
        """The eight 16-bit groups, most significant first."""
        return tuple((self._value >> shift) & 0xFFFF for shift in range(112, -16, -16))

    @property
    def is_multicast(self) -> bool:
        """True for ff00::/8."""
        return (self._value >> 120) == 0xFF

    @property
    def is_link_local(self) -> bool:
        """True for fe80::/10."""
        return (self._value >> 118) == (0xFE80 >> 6)

    def __str__(self) -> str:
        groups = self.groups
        # Find the longest run of zero groups (length >= 2) for "::".
        best_start, best_len = -1, 0
        run_start, run_len = -1, 0
        for index, group in enumerate(groups):
            if group == 0:
                if run_start < 0:
                    run_start, run_len = index, 0
                run_len += 1
                if run_len > best_len:
                    best_start, best_len = run_start, run_len
            else:
                run_start, run_len = -1, 0
        if best_len < 2:
            return ":".join(f"{group:x}" for group in groups)
        head = ":".join(f"{group:x}" for group in groups[:best_start])
        tail = ":".join(f"{group:x}" for group in groups[best_start + best_len:])
        return f"{head}::{tail}"


Address = Union[Ipv4Address, Ipv6Address]

#: DHCPv6 All_DHCP_Relay_Agents_and_Servers multicast group (RFC 8415).
ALL_DHCP_RELAY_AGENTS_AND_SERVERS = Ipv6Address.parse("ff02::1:2")

#: All-nodes link-local multicast group.
ALL_NODES_MULTICAST = Ipv6Address.parse("ff02::1")


class Ipv6AddressAllocator:
    """Hands out unique global unicast IPv6 addresses under a /64 prefix."""

    def __init__(self, prefix: str = "2001:db8:0:1"):
        self._prefix_value = Ipv6Address.parse(prefix + "::").value
        self._next_iid = 0

    def allocate(self) -> Ipv6Address:
        self._next_iid += 1
        return Ipv6Address(self._prefix_value | self._next_iid)

    def __iter__(self) -> Iterator[Ipv6Address]:
        while True:
            yield self.allocate()


class Ipv4AddressAllocator:
    """Hands out unique host addresses under an IPv4 /16 prefix."""

    def __init__(self, prefix: str = "10.0.0.0"):
        base = Ipv4Address.parse(prefix).value
        self._base = base & 0xFFFF0000
        self._next_host = 0

    def allocate(self) -> Ipv4Address:
        self._next_host += 1
        if self._next_host >= 0xFFFF:
            raise AddressError("IPv4 /16 pool exhausted")
        return Ipv4Address(self._base | self._next_host)

    def __iter__(self) -> Iterator[Ipv4Address]:
        while True:
            yield self.allocate()
