"""The paper's cell tables (§3.1).

Every micro-cell base station keeps a ``micro_table``; every macro-cell
base station keeps a ``macro_table`` *and* a ``micro_table`` covering
the micro cells in its region.  A record ``(mn, via)`` is a downward
pointer: the child base station (or the radio interface, for the
serving cell itself) through which the mobile is reachable.  Records
carry a time limit and are erased if no Location Message renews them.

Lookup order is the paper's: *"Macro-cell will search its micro_table
first, if not find, its macro_table will be searched."*
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.net.addressing import IPAddress

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node
    from repro.sim.kernel import Simulator

#: Sentinel ``via`` meaning "attached directly to this base station".
DIRECT = None


@dataclass(slots=True)
class LocationRecord:
    """One ``(mn, via)`` downward pointer with its expiry time."""

    mobile: IPAddress
    via: Optional["Node"]
    expires: float


class CellTable:
    """A micro_table or macro_table with soft-state records."""

    def __init__(self, sim: "Simulator", name: str, record_lifetime: float) -> None:
        if not record_lifetime > 0:  # nan fails too
            raise ValueError(f"record_lifetime must be positive, got {record_lifetime}")
        self.sim = sim
        self.name = name
        self.record_lifetime = record_lifetime
        self._records: dict[IPAddress, LocationRecord] = {}

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, mobile) -> bool:
        return self.get(mobile) is not None

    def store(self, mobile: IPAddress, via: Optional["Node"]) -> LocationRecord:
        """Insert the record for ``mobile``, or refresh its ``via`` and
        expiry in place."""
        expires = self.sim.now + self.record_lifetime
        record = self._records.get(mobile)
        if record is None:
            record = self._records[mobile] = LocationRecord(mobile, via, expires)
        else:
            record.via = via
            record.expires = expires
        return record

    def get(self, mobile: IPAddress) -> Optional[LocationRecord]:
        """The live record for ``mobile``, purging it if expired."""
        record = self._records.get(mobile)
        if record is None:
            return None
        if record.expires <= self.sim.now:
            del self._records[mobile]
            return None
        return record

    def peek(self, mobile: IPAddress) -> Optional[LocationRecord]:
        """Like :meth:`get` but leaves an expired record in place."""
        record = self._records.get(mobile)
        if record is None or record.expires <= self.sim.now:
            return None
        return record

    def delete(self, mobile: IPAddress) -> bool:
        """Explicit erase (Delete Location Message, §3.2)."""
        return self._records.pop(mobile, None) is not None


class TablePair:
    """The paper's per-BS table set with its two-step lookup.

    Micro-cell base stations have only a ``micro_table``; macro-cell
    base stations have both.  ``lookup`` returns the record and counts
    the number of tables probed (the paper's lookup-cost metric).
    """

    def __init__(
        self,
        sim: "Simulator",
        record_lifetime: float,
        has_macro_table: bool,
    ) -> None:
        self.micro_table = CellTable(sim, "micro", record_lifetime)
        self.macro_table = (
            CellTable(sim, "macro", record_lifetime) if has_macro_table else None
        )

    def store(self, mobile, via: Optional["Node"], serving_tier_is_macro: bool) -> None:
        """File the record in the table matching the MN's serving tier."""
        if serving_tier_is_macro and self.macro_table is not None:
            self.macro_table.store(mobile, via)
            # A fresher macro record invalidates any stale micro record.
            self.micro_table.delete(mobile)
        else:
            self.micro_table.store(mobile, via)
            if self.macro_table is not None:
                self.macro_table.delete(mobile)

    def lookup(self, mobile) -> tuple[Optional[LocationRecord], int]:
        """(record, tables probed) — micro_table first, then macro_table."""
        record = self.micro_table.get(mobile)
        if record is not None:
            return record, 1
        if self.macro_table is None:
            return None, 1
        record = self.macro_table.get(mobile)
        return record, 2

    def delete(self, mobile) -> bool:
        deleted = self.micro_table.delete(mobile)
        if self.macro_table is not None:
            deleted = self.macro_table.delete(mobile) or deleted
        return deleted

    def total_records(self) -> int:
        total = len(self.micro_table)
        if self.macro_table is not None:
            total += len(self.macro_table)
        return total
