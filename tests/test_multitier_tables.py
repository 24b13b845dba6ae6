"""Tests for the paper's cell tables (§3.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.multitier import DIRECT, CellTable, TablePair
from repro.net import Node, ip
from repro.sim import Simulator


def make_table(lifetime=5.0):
    sim = Simulator()
    table = CellTable(sim, "micro", record_lifetime=lifetime)
    node = Node(sim, "child")
    return sim, table, node


def test_store_and_get():
    sim, table, node = make_table()
    table.store(ip("10.1.0.1"), node)
    record = table.get(ip("10.1.0.1"))
    assert record is not None
    assert record.via is node
    assert record.via is not DIRECT


def test_direct_record():
    sim, table, _node = make_table()
    table.store(ip("10.1.0.1"), None)
    record = table.get(ip("10.1.0.1"))
    assert record.via is DIRECT


def test_record_expires():
    sim, table, node = make_table(lifetime=2.0)
    table.store(ip("10.1.0.1"), node)
    sim.timeout(3.0)
    sim.run()
    assert table.get(ip("10.1.0.1")) is None
    assert len(table) == 0  # the read purged the expired record


def test_refresh_extends_expiry():
    sim, table, node = make_table(lifetime=2.0)
    table.store(ip("10.1.0.1"), node)
    sim.timeout(1.5)
    sim.run()
    table.store(ip("10.1.0.1"), node)
    sim.timeout(1.5)
    sim.run()
    assert table.get(ip("10.1.0.1")) is not None


def test_refresh_renews_the_one_record_in_place():
    """A refresh keeps one record per mobile, repoints it and renews its
    expiry, also after the record lapsed unread."""
    sim, table, node = make_table(lifetime=2.0)
    other = Node(sim, "other")
    first = table.store(ip("10.1.0.1"), node)
    assert (first.via, first.expires) == (node, 2.0)
    sim.timeout(1.5)
    sim.run()
    again = table.store(ip("10.1.0.1"), other)
    assert len(table) == 1
    assert table.get(ip("10.1.0.1")) is again
    assert (again.mobile, again.via, again.expires) == (ip("10.1.0.1"), other, 3.5)
    sim.timeout(5.0)
    sim.run()
    assert table.peek(ip("10.1.0.1")) is None  # lapsed, not yet purged
    renewed = table.store(ip("10.1.0.1"), DIRECT)
    assert len(table) == 1
    assert (renewed.via, renewed.expires) == (DIRECT, 8.5)
    assert table.get(ip("10.1.0.1")) is renewed


def test_delete_record():
    sim, table, node = make_table()
    table.store(ip("10.1.0.1"), node)
    assert table.delete(ip("10.1.0.1"))
    assert not table.delete(ip("10.1.0.1"))
    assert table.get(ip("10.1.0.1")) is None
    assert ip("10.1.0.1") not in table and len(table) == 0


def test_invalid_lifetime():
    sim = Simulator()
    with pytest.raises(ValueError):
        CellTable(sim, "micro", record_lifetime=0.0)


def test_nan_lifetime_rejected():
    with pytest.raises(ValueError, match="record_lifetime must be positive"):
        CellTable(Simulator(), "micro", record_lifetime=float("nan"))


# ----------------------------------------------------------------------
# TablePair: the paper's micro-then-macro lookup
# ----------------------------------------------------------------------
def make_pair(macro=True, lifetime=5.0):
    sim = Simulator()
    pair = TablePair(sim, record_lifetime=lifetime, has_macro_table=macro)
    node = Node(sim, "child")
    return sim, pair, node


def test_micro_bs_has_no_macro_table():
    _sim, pair, _node = make_pair(macro=False)
    assert pair.macro_table is None


def test_micro_served_record_goes_to_micro_table():
    _sim, pair, node = make_pair()
    pair.store(ip("10.1.0.1"), node, serving_tier_is_macro=False)
    assert ip("10.1.0.1") in pair.micro_table
    assert ip("10.1.0.1") not in pair.macro_table


def test_macro_served_record_goes_to_macro_table():
    _sim, pair, node = make_pair()
    pair.store(ip("10.1.0.1"), node, serving_tier_is_macro=True)
    assert ip("10.1.0.1") in pair.macro_table
    assert ip("10.1.0.1") not in pair.micro_table


def test_micro_table_probed_first():
    _sim, pair, node = make_pair()
    pair.store(ip("10.1.0.1"), node, serving_tier_is_macro=False)
    record, probes = pair.lookup(ip("10.1.0.1"))
    assert record is not None
    assert probes == 1


def test_lookup_falls_back_to_macro_table():
    _sim, pair, node = make_pair()
    pair.store(ip("10.1.0.1"), node, serving_tier_is_macro=True)
    record, probes = pair.lookup(ip("10.1.0.1"))
    assert record is not None
    assert probes == 2


def test_lookup_miss_costs_both_probes():
    _sim, pair, _node = make_pair()
    record, probes = pair.lookup(ip("10.9.9.9"))
    assert record is None
    assert probes == 2


def test_tier_switch_supersedes_old_record():
    """An MN that moved micro->macro must not leave a stale micro record
    shadowing the macro one (lookup order would hit it first)."""
    _sim, pair, node = make_pair()
    pair.store(ip("10.1.0.1"), node, serving_tier_is_macro=False)
    pair.store(ip("10.1.0.1"), node, serving_tier_is_macro=True)
    assert ip("10.1.0.1") not in pair.micro_table
    record, probes = pair.lookup(ip("10.1.0.1"))
    assert record is not None and probes == 2


def test_pair_delete_clears_both():
    _sim, pair, node = make_pair()
    pair.store(ip("10.1.0.1"), node, serving_tier_is_macro=True)
    assert pair.delete(ip("10.1.0.1"))
    record, _ = pair.lookup(ip("10.1.0.1"))
    assert record is None


def test_total_records():
    _sim, pair, node = make_pair()
    pair.store(ip("10.1.0.1"), node, serving_tier_is_macro=False)
    pair.store(ip("10.1.0.2"), node, serving_tier_is_macro=True)
    assert pair.total_records() == 2


@settings(max_examples=40, deadline=None)
@given(
    moves=st.lists(st.booleans(), min_size=1, max_size=12),
)
def test_property_exactly_one_live_record_per_mobile(moves):
    """However a mobile bounces between tiers, the pair never holds two
    live records for it."""
    sim = Simulator()
    pair = TablePair(sim, record_lifetime=100.0, has_macro_table=True)
    node = Node(sim, "child")
    mobile = ip("10.1.0.1")
    for is_macro in moves:
        pair.store(mobile, node, serving_tier_is_macro=is_macro)
        live = int(mobile in pair.micro_table) + int(mobile in pair.macro_table)
        assert live == 1
    record, _ = pair.lookup(mobile)
    assert record is not None
