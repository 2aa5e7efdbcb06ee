"""Unit + property tests for MAC/IPv4/IPv6 addresses."""

import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from repro.netsim.address import (
    ALL_DHCP_RELAY_AGENTS_AND_SERVERS,
    AddressError,
    Ipv4Address,
    Ipv4AddressAllocator,
    Ipv6Address,
    Ipv6AddressAllocator,
    MacAddress,
)


class TestIpv4:
    def test_parse_and_format(self):
        assert str(Ipv4Address.parse("10.0.0.1")) == "10.0.0.1"

    def test_parse_extremes(self):
        assert Ipv4Address.parse("0.0.0.0").value == 0
        assert Ipv4Address.parse("255.255.255.255").value == 0xFFFFFFFF

    @pytest.mark.parametrize(
        "text",
        ["1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "01.2.3.4", "", "1..2.3"],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(AddressError):
            Ipv4Address.parse(text)

    def test_multicast_detection(self):
        assert Ipv4Address.parse("224.0.0.1").is_multicast
        assert not Ipv4Address.parse("10.1.2.3").is_multicast

    def test_broadcast_detection(self):
        assert Ipv4Address.parse("255.255.255.255").is_broadcast

    def test_equality_and_hash(self):
        one = Ipv4Address.parse("10.0.0.1")
        two = Ipv4Address.parse("10.0.0.1")
        assert one == two
        assert hash(one) == hash(two)
        assert one != Ipv4Address.parse("10.0.0.2")

    def test_not_equal_to_same_valued_ipv6(self):
        assert Ipv4Address(5) != Ipv6Address(5)

    def test_out_of_range_rejected(self):
        with pytest.raises(AddressError):
            Ipv4Address(1 << 32)
        with pytest.raises(AddressError):
            Ipv4Address(-1)

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_roundtrip_property(self, value):
        address = Ipv4Address(value)
        assert Ipv4Address.parse(str(address)) == address


class TestIpv6:
    def test_parse_full_form(self):
        address = Ipv6Address.parse("2001:0db8:0000:0000:0000:0000:0000:0001")
        assert str(address) == "2001:db8::1"

    def test_parse_compressed(self):
        assert Ipv6Address.parse("::1").value == 1
        assert Ipv6Address.parse("::").value == 0

    def test_compression_picks_longest_zero_run(self):
        address = Ipv6Address.parse("1:0:0:2:0:0:0:3")
        assert str(address) == "1:0:0:2::3"

    def test_single_zero_group_not_compressed(self):
        address = Ipv6Address.parse("1:0:2:3:4:5:6:7")
        assert str(address) == "1:0:2:3:4:5:6:7"

    @pytest.mark.parametrize(
        "text",
        ["", ":::", "1::2::3", "1:2:3:4:5:6:7", "1:2:3:4:5:6:7:8:9", "12345::", "g::1"],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(AddressError):
            Ipv6Address.parse(text)

    def test_multicast_detection(self):
        assert ALL_DHCP_RELAY_AGENTS_AND_SERVERS.is_multicast
        assert Ipv6Address.parse("ff02::1").is_multicast
        assert not Ipv6Address.parse("2001:db8::1").is_multicast

    def test_link_local_detection(self):
        assert Ipv6Address.parse("fe80::1").is_link_local
        assert not Ipv6Address.parse("2001:db8::1").is_link_local

    def test_dhcp_group_value(self):
        assert str(ALL_DHCP_RELAY_AGENTS_AND_SERVERS) == "ff02::1:2"

    def test_groups(self):
        address = Ipv6Address.parse("1:2:3:4:5:6:7:8")
        assert address.groups == (1, 2, 3, 4, 5, 6, 7, 8)

    @given(st.integers(min_value=0, max_value=(1 << 128) - 1))
    def test_roundtrip_property(self, value):
        address = Ipv6Address(value)
        assert Ipv6Address.parse(str(address)) == address


class TestHash:
    def test_unpickled_address_finds_its_dict_entry(self):
        address = Ipv6Address.parse("2001:db8::7")
        table = {address: "tserver", Ipv6Address.parse("2001:db8::8"): "dev"}
        restored = pickle.loads(pickle.dumps(address))
        assert restored == address
        assert table[restored] == "tserver"
        assert pickle.loads(pickle.dumps(table))[address] == "tserver"

    def test_hash_does_not_depend_on_hash_seed(self):
        code = ("from repro.netsim.address import Ipv4Address, Ipv6Address; "
                "print(hash(Ipv6Address(7)), hash(Ipv4Address(7)))")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        outputs = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            outputs.add(subprocess.run([sys.executable, "-c", code], env=env,
                                       capture_output=True, text=True,
                                       check=True).stdout)
        assert outputs == {f"{hash(Ipv6Address(7))} {hash(Ipv4Address(7))}\n"}


class TestMac:
    def test_parse_and_format(self):
        assert str(MacAddress.parse("02:00:00:00:00:2a")) == "02:00:00:00:00:2a"

    @pytest.mark.parametrize("text", ["", "02:00", "zz:00:00:00:00:00", "020000000000"])
    def test_malformed_rejected(self, text):
        with pytest.raises(AddressError):
            MacAddress.parse(text)

    def test_allocation_is_unique(self):
        macs = {MacAddress.allocate() for _ in range(100)}
        assert len(macs) == 100

    @given(st.integers(min_value=0, max_value=(1 << 48) - 1))
    def test_roundtrip_property(self, value):
        address = MacAddress(value)
        assert MacAddress.parse(str(address)) == address


class TestAllocators:
    def test_ipv6_allocator_sequential_and_unique(self):
        pool = Ipv6AddressAllocator("2001:db8:0:1")
        first = pool.allocate()
        second = pool.allocate()
        assert first != second
        assert str(first) == "2001:db8:0:1::1"
        assert str(second) == "2001:db8:0:1::2"

    def test_ipv4_allocator_stays_in_prefix(self):
        pool = Ipv4AddressAllocator("10.7.0.0")
        for _ in range(10):
            address = pool.allocate()
            assert str(address).startswith("10.7.")

    def test_ipv4_allocator_exhaustion(self):
        pool = Ipv4AddressAllocator("10.0.0.0")
        pool._next_host = 0xFFFE
        with pytest.raises(AddressError):
            pool.allocate()
