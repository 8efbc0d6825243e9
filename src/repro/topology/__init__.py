"""Topologies and routing: fat-tree data centers and ISP backbones."""

from .fattree import (
    FatTreeSpec,
    build_fat_tree,
    core_name,
    agg_name,
    edge_name,
    host_name,
    hosts,
    switches,
)
from .isp import (
    ISP_TOPOLOGY_NAMES,
    abilene,
    geant,
    get_isp_topology,
    pops,
    quest,
)
from .routing import Path, PathProvider, path_links, path_switches

__all__ = [
    "FatTreeSpec",
    "ISP_TOPOLOGY_NAMES",
    "Path",
    "PathProvider",
    "abilene",
    "agg_name",
    "build_fat_tree",
    "core_name",
    "edge_name",
    "geant",
    "get_isp_topology",
    "host_name",
    "hosts",
    "path_links",
    "path_switches",
    "pops",
    "quest",
    "switches",
]
