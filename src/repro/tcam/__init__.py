"""TCAM substrate: prefix/ternary algebra, tables, slices, timing models.

This package models the hardware layer of the paper: the behaviour of TCAM
memory (ordered storage, shift-on-insert), the empirical per-switch latency
profiles from Table 1, and the slice-carving mechanism Hermes is built on.
"""

from .moveplan import conflicts_with_resident
from .prefix import Prefix, covers_same_addresses, merge_prefixes
from .trie import PrefixRuleIndex
from .rule import Action, Rule
from .slices import CarvedTcam, SliceConfig
from .table import (
    ControlActionResult,
    RuleNotFoundError,
    TableFullError,
    TableStats,
    TcamError,
    TcamTable,
)
from .ternary import TernaryMatch
from .timing import EmpiricalTimingModel, IdealTimingModel, InsertOrder
from .switch_models import (
    SWITCH_MODEL_NAMES,
    commodity_switch_models,
    dell_8132f,
    get_switch_model,
    hp_5406zl,
    ideal_switch,
    pica8_p3290,
)

__all__ = [
    "Action",
    "CarvedTcam",
    "ControlActionResult",
    "EmpiricalTimingModel",
    "IdealTimingModel",
    "InsertOrder",
    "PrefixRuleIndex",
    "Prefix",
    "Rule",
    "RuleNotFoundError",
    "SWITCH_MODEL_NAMES",
    "SliceConfig",
    "TableFullError",
    "TableStats",
    "TcamError",
    "TcamTable",
    "TernaryMatch",
    "commodity_switch_models",
    "conflicts_with_resident",
    "covers_same_addresses",
    "dell_8132f",
    "get_switch_model",
    "hp_5406zl",
    "ideal_switch",
    "merge_prefixes",
    "pica8_p3290",
]
