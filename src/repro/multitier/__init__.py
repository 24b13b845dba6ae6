"""The paper's primary contribution: multi-tier mobility management —
hierarchical cell tables, the three-factor handoff strategy, and the
Resource Switching Management Center (RSMC)."""

from repro.multitier import messages
from repro.multitier.basestation import Attachment, MultiTierBaseStation
from repro.multitier.correspondent import CorrespondentNode
from repro.multitier.domain import MobileRealm, MultiTierDomain
from repro.multitier.mnld import MNLD
from repro.multitier.mobile import MultiTierMobileNode
from repro.multitier.rsmc import RSMC
from repro.multitier.tables import DIRECT, CellTable, LocationRecord, TablePair

__all__ = [
    "Attachment",
    "CellTable",
    "CorrespondentNode",
    "DIRECT",
    "LocationRecord",
    "MNLD",
    "MobileRealm",
    "MultiTierBaseStation",
    "MultiTierDomain",
    "MultiTierMobileNode",
    "RSMC",
    "TablePair",
    "messages",
]
