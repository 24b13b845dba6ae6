"""IPv4 addresses and prefixes.

Addresses are an ``int`` subclass so they format nicely, cannot be
confused with packet sizes or ports, and hash and compare at C speed.
The paper's architecture is explicitly IPv4 ("a multi-tier solution
base on the current IP (IPv4)"), so 32-bit addressing is used throughout.
"""

from __future__ import annotations

from typing import Union

_MAX = (1 << 32) - 1


class IPAddress(int):
    """A 32-bit IPv4 address: an ``int`` that prints dotted.

    Hashing, equality and ordering are ``int``'s own, so an address in
    a ``packet.dst`` field is tested against sets, dicts and lists as
    it is; ``IPAddress(a)`` returns ``a`` itself when it already is one.
    """

    __slots__ = ()

    def __new__(cls, value: Union[int, str, "IPAddress"]) -> "IPAddress":
        if type(value) is cls:
            return value
        if isinstance(value, str):
            value = _parse_dotted(value)
        elif not isinstance(value, int):
            raise TypeError(f"cannot make an IPAddress from {value!r}")
        if not 0 <= value <= _MAX:
            raise ValueError(f"address out of range: {value}")
        return int.__new__(cls, value)

    def __repr__(self) -> str:
        return f"IPAddress({str(self)!r})"

    def __str__(self) -> str:
        return ".".join(str((self >> shift) & 0xFF) for shift in (24, 16, 8, 0))

    def __add__(self, offset: int) -> "IPAddress":
        return IPAddress(int(self) + offset)


def _parse_dotted(text: str) -> int:
    parts = text.strip().split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address: {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise ValueError(f"malformed IPv4 address: {text!r}")
        octet = int(part)
        if octet > 255:
            raise ValueError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def ip(value: Union[int, str, IPAddress]) -> IPAddress:
    """Convenience constructor: ``ip("10.0.0.1")``."""
    return IPAddress(value)


class Prefix:
    """An IPv4 network prefix such as ``10.1.0.0/16``."""

    __slots__ = ("network", "length", "_mask")

    def __init__(self, network: Union[int, str, IPAddress], length: int = None) -> None:
        if isinstance(network, str) and "/" in network:
            if length is not None:
                raise ValueError("length given twice")
            network, _slash, length_text = network.partition("/")
            length = int(length_text)
        if length is None:
            raise ValueError("prefix length required")
        if not 0 <= length <= 32:
            raise ValueError(f"prefix length out of range: {length}")
        self.length = length
        self._mask = (_MAX << (32 - length)) & _MAX if length else 0
        base = int(IPAddress(network))
        self.network = IPAddress(base & self._mask)

    @property
    def mask(self) -> int:
        return self._mask

    def __contains__(self, address: Union[int, str, IPAddress]) -> bool:
        if type(address) is not IPAddress:
            address = IPAddress(address)
        return address & self._mask == self.network

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        return self.network == other.network and self.length == other.length

    def __hash__(self) -> int:
        return hash((int(self.network), self.length))

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"

    def __str__(self) -> str:
        return f"{self.network}/{self.length}"


class AddressAllocator:
    """Hands out sequential host addresses from a prefix."""

    def __init__(self, prefix: Union[str, Prefix]) -> None:
        self.prefix = prefix if isinstance(prefix, Prefix) else Prefix(prefix)
        self._next = 1

    def allocate(self) -> IPAddress:
        size = 1 << (32 - self.prefix.length)
        if self._next >= size - 1:
            raise RuntimeError(f"prefix {self.prefix} exhausted")
        address = IPAddress(int(self.prefix.network) + self._next)
        self._next += 1
        return address
