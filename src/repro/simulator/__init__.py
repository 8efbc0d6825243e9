"""Varys: the flow-level network simulator and its components."""

from .controller import (
    InstallOutcome,
    InstallerFactory,
    SdnController,
    flow_match,
    flow_rule_priority,
)
from .fairshare import (
    Link,
    UNCONSTRAINED_RATE,
    flow_sort_key,
    link_utilization,
    max_min_fair_rates,
)
from .flowstate import FlowStore
from .metrics import FlowRecord, MetricsCollector
from .sdnapp import ProactiveTeApp, Reroute, TeAppConfig
from .simulation import Simulation, SimulationConfig

__all__ = [
    "FlowRecord",
    "FlowStore",
    "InstallOutcome",
    "InstallerFactory",
    "Link",
    "MetricsCollector",
    "ProactiveTeApp",
    "Reroute",
    "SdnController",
    "Simulation",
    "SimulationConfig",
    "TeAppConfig",
    "UNCONSTRAINED_RATE",
    "flow_match",
    "flow_rule_priority",
    "flow_sort_key",
    "link_utilization",
    "max_min_fair_rates",
]
