"""``Packet``'s hand-written constructor against the generated one.

``Packet`` is ``@dataclass(init=False, slots=True)`` with one written-out
``__init__``.  The specification is the dataclass it was — generated
``__init__`` plus ``__post_init__`` — kept here verbatim as
:class:`ReferencePacket`: for any call (positional, keyword or mixed;
``str``, ``int`` or ``IPAddress`` addresses; any default omitted or
given; good and bad sizes) both must build the same fields with the same
types or raise the same error, and everything ``dataclasses`` offers on
the class must keep working.
"""

import dataclasses
import itertools
from dataclasses import dataclass, field, fields
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import IPAddress
from repro.net.packet import Packet

_reference_ids = itertools.count(1)


# ----------------------------------------------------------------------
# The specification: the class as it was, verbatim
# ----------------------------------------------------------------------
@dataclass(slots=True)
class ReferencePacket:
    src: IPAddress
    dst: IPAddress
    size: int
    protocol: str = "data"
    payload: object = None
    flow_id: Optional[str] = None
    seq: int = 0
    created_at: float = 0.0
    ttl: int = 64
    uid: int = field(default_factory=_reference_ids.__next__)
    duplicate_of: Optional[int] = None
    paged: bool = False

    def __post_init__(self) -> None:
        if type(self.src) is not IPAddress:
            self.src = IPAddress(self.src)
        if type(self.dst) is not IPAddress:
            self.dst = IPAddress(self.dst)
        if self.size <= 0:
            raise ValueError(f"packet size must be positive, got {self.size}")

    def copy(self, **overrides) -> "ReferencePacket":
        fields = {
            "src": self.src,
            "dst": self.dst,
            "size": self.size,
            "protocol": self.protocol,
            "payload": self.payload,
            "flow_id": self.flow_id,
            "seq": self.seq,
            "created_at": self.created_at,
            "ttl": self.ttl,
        }
        fields.update(overrides)
        return ReferencePacket(**fields)


# ----------------------------------------------------------------------
# Generated calls
# ----------------------------------------------------------------------
NAMES = [f.name for f in fields(ReferencePacket)]
REQUIRED = 3  # src, dst, size

_address = st.one_of(
    st.sampled_from(["10.0.0.1", "192.168.7.9", " 10.1.2.3 "]),
    st.sampled_from([0, 1, 0x0A000001, 2**32 - 1]),
    st.sampled_from([IPAddress("10.9.8.7"), IPAddress(5)]),
    st.sampled_from([-1, 2**32, "10.0.0", "10.0.0.256"]),  # each a ValueError
)
_values = {
    "src": _address,
    "dst": _address,
    "size": st.sampled_from([-1, 0, 1, 1000, 10**12]),
    "protocol": st.sampled_from(["data", "ack", "ipip", "cip-route-update"]),
    "payload": st.one_of(st.none(), st.integers(), st.text(max_size=3)),
    "flow_id": st.one_of(st.none(), st.text(max_size=3)),
    "seq": st.integers(0, 10**6),
    "created_at": st.floats(0, 1e6),
    "ttl": st.integers(0, 255),
    "uid": st.integers(1, 10**9),
    "duplicate_of": st.one_of(st.none(), st.integers(1, 10**9)),
    "paged": st.booleans(),
}


@st.composite
def calls(draw):
    """``(args, kwargs)``: the first ``k`` parameters positionally, the
    required rest by keyword, every other default omitted or given."""
    positional = draw(st.integers(0, len(NAMES)))
    args = tuple(draw(_values[name]) for name in NAMES[:positional])
    kwargs = {
        name: draw(_values[name])
        for index, name in enumerate(NAMES[positional:], start=positional)
        if index < REQUIRED or draw(st.booleans())
    }
    return args, kwargs


def outcome(make, *args, **kwargs):
    """The packet ``make(*args, **kwargs)`` built, or the error it raised."""
    try:
        return make(*args, **kwargs)
    except ValueError as error:
        return ("ValueError", str(error))


def record(packet, skip=()):
    """``[(name, type, value), ...]`` over the dataclass fields."""
    return [
        (f.name, type(getattr(packet, f.name)), getattr(packet, f.name))
        for f in fields(packet)
        if f.name not in skip
    ]


@settings(max_examples=500, deadline=None)
@given(st.lists(calls(), min_size=1, max_size=6))
def test_any_call_builds_what_the_generated_constructor_built(many):
    last_uid = 0
    for args, kwargs in many:
        made = outcome(Packet, *args, **kwargs)
        expected = outcome(ReferencePacket, *args, **kwargs)
        if isinstance(expected, tuple):
            assert made == expected
            continue
        uid_given = len(args) > NAMES.index("uid") or "uid" in kwargs
        assert record(made, skip=() if uid_given else ("uid",)) == record(
            expected, skip=() if uid_given else ("uid",)
        )
        if not uid_given:  # fresh, whatever the style of the call
            assert type(made.uid) is int and made.uid > last_uid
            last_uid = made.uid


def test_a_call_the_generated_constructor_refused_is_still_a_type_error():
    for args, kwargs in [
        ((), {}),
        (("10.0.0.1", "10.0.0.2"), {}),
        (("10.0.0.1", "10.0.0.2", 1), {"size": 1}),
        (("10.0.0.1", "10.0.0.2", 1), {"colour": "red"}),
        (("10.0.0.1", "10.0.0.2", 1) + (None,) * 10, {}),
        ((1.5, "10.0.0.2", 1), {}),  # not an address
    ]:
        with pytest.raises(TypeError):
            ReferencePacket(*args, **kwargs)
        with pytest.raises(TypeError):
            Packet(*args, **kwargs)


def test_the_dataclass_surface_is_the_reference_s():
    assert [(f.name, f.default, f.init, f.compare) for f in fields(Packet)] == [
        (f.name, f.default, f.init, f.compare) for f in fields(ReferencePacket)
    ]
    assert not hasattr(Packet, "__post_init__")
    assert Packet.__slots__ == ReferencePacket.__slots__
    packet = Packet("10.0.0.1", "10.0.0.2", 100, flow_id="f", seq=7)
    assert not hasattr(packet, "__dict__")
    twin = dataclasses.replace(packet)
    assert twin == packet and twin is not packet  # uid compares too
    assert dataclasses.replace(packet, seq=8) != packet
    assert repr(packet) == f"<Packet #{packet.uid} data 10.0.0.1->10.0.0.2 100B seq=7>"
    assert dataclasses.asdict(packet)["dst"] == IPAddress("10.0.0.2")


_good_address = st.sampled_from(["10.0.0.1", 7, IPAddress("10.9.8.7")])


@settings(max_examples=300, deadline=None)
@given(
    st.fixed_dictionaries(
        {"src": _good_address, "dst": _good_address, "size": st.just(64)},
        optional={name: _values[name] for name in NAMES[REQUIRED:]},
    ),
    st.fixed_dictionaries(
        {}, optional={name: _values[name] for name in NAMES if name != "uid"}
    ),
)
def test_copy_and_replace_agree_with_the_reference(base, overrides):
    packet, reference = Packet(**base), ReferencePacket(**base)
    copied = outcome(packet.copy, **overrides)
    expected = outcome(reference.copy, **overrides)
    replaced = outcome(dataclasses.replace, packet, **overrides)
    expected_replaced = outcome(dataclasses.replace, reference, **overrides)
    if isinstance(expected, tuple):  # a bad size or address among the overrides
        assert (copied, replaced) == (expected, expected_replaced)
        return
    assert record(copied, skip=("uid",)) == record(expected, skip=("uid",))
    if "uid" not in base:
        assert copied.uid > packet.uid  # a copy is a new packet
    assert record(replaced, skip=("uid",)) == record(expected_replaced, skip=("uid",))
    assert replaced.uid == packet.uid  # replace() passes the uid along


def test_copy_does_not_carry_the_marks_of_one_particular_copy():
    """What ``Packet.copy``'s docstring says: ``duplicate_of`` and
    ``paged`` come from the overrides or are the defaults."""
    marked = Packet("10.0.0.1", "10.0.0.2", 100, duplicate_of=41, paged=True, ttl=9)
    plain = marked.copy()
    assert (plain.duplicate_of, plain.paged, plain.ttl) == (None, False, 9)
    again = marked.copy(duplicate_of=marked.uid, paged=True)
    assert (again.duplicate_of, again.paged) == (marked.uid, True)
    assert "not* carried" in " ".join(Packet.copy.__doc__.split())
