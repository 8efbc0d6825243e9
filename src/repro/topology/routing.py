"""Routing helpers: shortest paths, k-shortest paths, and ECMP sets.

The proactive traffic-engineering SDNApp (Section 8.1.1) moves flows between
alternative paths; these helpers enumerate the candidates.  Results are
cached per graph because path enumeration dominates simulator start-up on
the k=16 fat tree.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Dict, List, Tuple

import networkx as nx

Path = Tuple[str, ...]


class PathProvider:
    """Caching path oracle over one topology."""

    def __init__(self, graph: nx.Graph, k_paths: int = 4) -> None:
        """Create a provider enumerating up to ``k_paths`` per OD pair."""
        if k_paths < 1:
            raise ValueError(f"k_paths must be >= 1, got {k_paths}")
        self.graph = graph
        self.k_paths = k_paths
        self._cache: Dict[Tuple[str, str], List[Path]] = {}

    def shortest_path(self, source: str, target: str) -> Path:
        """The first of the k shortest paths."""
        return self.paths(source, target)[0]

    def paths(self, source: str, target: str) -> List[Path]:
        """Up to ``k_paths`` loop-free paths, shortest first.

        Raises:
            nx.NetworkXNoPath: when the endpoints are disconnected.
        """
        key = (source, target)
        if key not in self._cache:
            generator = nx.shortest_simple_paths(self.graph, source, target)
            found = [
                tuple(path) for path in itertools.islice(generator, self.k_paths)
            ]
            if not found:
                raise nx.NetworkXNoPath(f"no path {source} -> {target}")
            self._cache[key] = found
            # Paths are symmetric in an undirected graph: prime the reverse.
            self._cache.setdefault(
                (target, source), [tuple(reversed(path)) for path in found]
            )
        return self._cache[key]

    def ecmp_paths(self, source: str, target: str) -> List[Path]:
        """The equal-cost subset of the k shortest paths."""
        candidates = self.paths(source, target)
        best_length = len(candidates[0])
        return [path for path in candidates if len(path) == best_length]


@lru_cache(maxsize=None)
def path_links_cached(path: Path) -> Tuple[Tuple[str, str], ...]:
    """The (canonically ordered) links a path traverses, memoized.

    Paths are immutable tuples and the set of distinct paths is bounded
    by the topology (the :class:`PathProvider` cache), so the memo is
    small — but the links were being recomputed per flow on every rate
    recompute, TE epoch, and link failure, which the wall-clock profiler
    attributes squarely to the ``fairshare`` layer.  Hot paths call
    this directly; :func:`path_links` stays the list-returning wrapper.
    """
    return tuple(tuple(sorted((a, b))) for a, b in zip(path, path[1:]))


def path_links(path: Path) -> List[Tuple[str, str]]:
    """The (canonically ordered) links a path traverses."""
    return list(path_links_cached(path))


def path_switches(path: Path, graph: nx.Graph) -> List[str]:
    """The non-host nodes along a path (where rules must be installed)."""
    return [node for node in path if graph.nodes[node].get("kind") != "host"]
