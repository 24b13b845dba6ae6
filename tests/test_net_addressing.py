"""Tests for IPv4 addresses, prefixes and allocation."""

import pickle

import pytest

from repro.net import AddressAllocator, IPAddress, Prefix, ip


def test_parse_and_format_roundtrip():
    assert str(ip("10.1.2.3")) == "10.1.2.3"
    assert str(ip("0.0.0.0")) == "0.0.0.0"
    assert str(ip("255.255.255.255")) == "255.255.255.255"


def test_address_from_int():
    assert str(IPAddress(0x0A000001)) == "10.0.0.1"
    assert int(ip("10.0.0.1")) == 0x0A000001


def test_address_equality_and_hash():
    assert ip("10.0.0.1") == ip("10.0.0.1")
    assert ip("10.0.0.1") == 0x0A000001
    assert ip("10.0.0.1") != ip("10.0.0.2")
    assert len({ip("10.0.0.1"), ip("10.0.0.1")}) == 1


def test_address_is_an_int_and_is_never_rewrapped():
    address = ip("10.0.0.1")
    assert isinstance(address, int)
    assert IPAddress(address) is address
    assert ip(address) is address
    assert hash(address) == hash(int(address)) == hash(0x0A000001)
    assert {0x0A000001: "hop"}[address] == "hop"
    assert address in [0x0A000001]


def test_address_prints_dotted_everywhere():
    address = ip("10.1.2.3")
    assert str(address) == f"{address}" == "%s" % address == "10.1.2.3"
    assert repr(address) == "IPAddress('10.1.2.3')"
    assert repr([address]) == "[IPAddress('10.1.2.3')]"


def test_address_arithmetic_stays_range_checked():
    assert type(ip("10.0.0.1") + 1) is IPAddress
    with pytest.raises(ValueError):
        ip("255.255.255.255") + 1
    with pytest.raises(ValueError):
        ip("0.0.0.0") + -1


@pytest.mark.parametrize("bad", [1.0, None, b"10.0.0.1", (10, 0, 0, 1)])
def test_address_from_other_types_rejected(bad):
    with pytest.raises(TypeError):
        IPAddress(bad)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_address_pickle_roundtrip_keeps_type_and_value(protocol):
    """Results carrying addresses cross ``ProcessPoolBackend``."""
    address = ip("10.1.2.3")
    clone = pickle.loads(pickle.dumps(address, protocol))
    assert type(clone) is IPAddress
    assert clone == address and str(clone) == "10.1.2.3"


def test_sorting_mixed_addresses_and_ints_is_stable():
    mixed = [ip("0.0.0.5"), 3, ip("0.0.0.3"), 5, 4, ip("0.0.0.4")]
    ordered = sorted(mixed)
    assert ordered == [3, 3, 4, 4, 5, 5]
    # Equal keys keep their input order, whichever type came first.
    assert [type(x) for x in ordered] == [
        int, IPAddress, int, IPAddress, IPAddress, int
    ]


def test_address_ordering():
    assert ip("10.0.0.1") < ip("10.0.0.2")
    assert ip("9.255.255.255") < ip("10.0.0.0")


def test_address_arithmetic():
    assert ip("10.0.0.1") + 5 == ip("10.0.0.6")
    assert ip("10.0.0.255") + 1 == ip("10.0.1.0")


@pytest.mark.parametrize(
    "bad", ["10.0.0", "10.0.0.0.0", "10.0.0.256", "ten.zero.zero.one", "1.2.3.-4"]
)
def test_malformed_addresses_rejected(bad):
    with pytest.raises(ValueError):
        ip(bad)


def test_address_out_of_range_rejected():
    with pytest.raises(ValueError):
        IPAddress(1 << 32)
    with pytest.raises(ValueError):
        IPAddress(-1)


def test_prefix_contains():
    prefix = Prefix("10.1.0.0/16")
    assert ip("10.1.2.3") in prefix
    assert ip("10.2.0.0") not in prefix
    assert ip("10.1.255.255") in prefix


def test_prefix_normalizes_network():
    prefix = Prefix("10.1.2.3/16")
    assert str(prefix) == "10.1.0.0/16"


def test_prefix_zero_length_matches_everything():
    default = Prefix("0.0.0.0/0")
    assert ip("1.2.3.4") in default
    assert ip("255.0.0.1") in default


def test_prefix_32_matches_exactly():
    host = Prefix("10.0.0.1/32")
    assert ip("10.0.0.1") in host
    assert ip("10.0.0.2") not in host


def test_prefix_invalid_length():
    with pytest.raises(ValueError):
        Prefix("10.0.0.0/33")
    with pytest.raises(ValueError):
        Prefix("10.0.0.0", -1)


def test_allocator_sequential_unique():
    allocator = AddressAllocator("10.5.0.0/24")
    a = allocator.allocate()
    b = allocator.allocate()
    assert a != b
    assert a in Prefix("10.5.0.0/24")
    assert b in Prefix("10.5.0.0/24")


def test_allocator_exhaustion():
    allocator = AddressAllocator("10.5.0.0/30")
    allocator.allocate()
    with pytest.raises(RuntimeError):
        allocator.allocate()
        allocator.allocate()
