"""Routing helpers: shortest paths, k-shortest paths, and ECMP sets.

The proactive traffic-engineering SDNApp (Section 8.1.1) moves flows between
alternative paths; these helpers enumerate the candidates.  Candidates come
from :func:`k_shortest_simple_paths`, a port of networkx's unweighted
``shortest_simple_paths`` (Yen's algorithm) to integer node ids.  The port
keeps networkx's order by construction: the same bidirectional-BFS spur
search, neighbours in ``G.adj`` order, and ties between equal-length
candidates broken by push order.  The tests hold it equal to networkx.

Results are cached per :class:`PathProvider`, which means per
:class:`~repro.simulator.simulation.Simulation` (each builds its own),
because path enumeration dominates simulator start-up on the k=16 fat
tree.  Two caches: one keyed by endpoint pair, which also primes the
reversed pair with the reversed paths, and one keyed by the *ordered*
pair of attachment switches.  When both endpoints are leaves (degree 1,
like every fat-tree host), their paths are the paths between their
attachment switches with the endpoints added at each end, so all hosts
under one pair of edge switches share one enumeration.  The attachment
cache is never reverse-primed: Yen's order from ``a`` to ``b`` is not
the reversed order from ``b`` to ``a`` (4 of the 28 edge-switch pairs of
a k=4 fat tree differ).  The leaf-leaf rule reproduces networkx's order
on the shipped topologies (fat trees, Abilene, Geant, Quest); on
arbitrary graphs it still yields k shortest simple paths, not always in
networkx's order.

A path's ids, and the ids of its links, live in the simulation's
:class:`~repro.simulator.flowstate.FlowStore`, the one path index that
the fair share and the TE planner both read; :func:`path_links` itself
keeps nothing.  No cache may outlive a simulation, and so a benchmark
round: a round that reused another's paths would time less work than it
reports.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Set, Tuple

import networkx as nx

Path = Tuple[str, ...]
_IdPath = Tuple[int, ...]


def _bidirectional_bfs(
    adj: Sequence[Sequence[int]],
    source: int,
    target: int,
    ignore_nodes: Set[int],
    ignore_edges: Dict[int, Set[int]],
) -> Optional[_IdPath]:
    """A shortest ``source``-``target`` path avoiding the ignored nodes and
    edges, found as networkx's ``_bidirectional_pred_succ`` finds it; None
    when there is none.  ``ignore_edges`` maps a node to the neighbours it
    may not step to (both directions are stored)."""
    if source == target:
        return (source,)
    pred: Dict[int, Optional[int]] = {source: None}
    succ: Dict[int, Optional[int]] = {target: None}
    forward = [source]
    reverse = [target]
    while forward and reverse:
        if len(forward) <= len(reverse):
            level, forward = forward, []
            for v in level:
                blocked = ignore_edges.get(v, ())
                for w in adj[v]:
                    if w in ignore_nodes or w in blocked:
                        continue
                    if w not in pred:
                        forward.append(w)
                        pred[w] = v
                    if w in succ:
                        return _join(pred, succ, w)
        else:
            level, reverse = reverse, []
            for v in level:
                blocked = ignore_edges.get(v, ())
                for w in adj[v]:
                    if w in ignore_nodes or w in blocked:
                        continue
                    if w not in succ:
                        succ[w] = v
                        reverse.append(w)
                    if w in pred:
                        return _join(pred, succ, w)
    return None


def _join(
    pred: Dict[int, Optional[int]], succ: Dict[int, Optional[int]], meet: int
) -> _IdPath:
    """The path through ``meet``: back along ``pred``, on along ``succ``."""
    path = []
    node = pred[meet]
    while node is not None:
        path.append(node)
        node = pred[node]
    path.reverse()
    node = meet
    while node is not None:
        path.append(node)
        node = succ[node]
    return tuple(path)


def k_shortest_simple_paths(
    adj: Sequence[Sequence[int]], source: int, target: int, k: int
) -> List[_IdPath]:
    """The first ``k`` paths of networkx's unweighted
    ``shortest_simple_paths`` on the graph whose node ``v`` has neighbours
    ``adj[v]`` (in ``G.adj`` order); fewer when fewer exist, none when the
    endpoints are disconnected."""
    first = _bidirectional_bfs(adj, source, target, set(), {})
    if first is None:
        return []
    found: List[_IdPath] = []
    # (length, push order, path), as networkx's PathBuffer orders its
    # candidates; a candidate already queued is not queued again.
    heap = [(len(first), 0, first)]
    queued = {first}
    pushes = 1
    while heap:
        path = heappop(heap)[2]
        queued.remove(path)
        found.append(path)
        if len(found) == k:
            break
        ignore_nodes: Set[int] = set()
        ignore_edges: Dict[int, Set[int]] = {}
        for i in range(1, len(path)):
            root = path[:i]
            spur_node = path[i - 1]
            for prior in found:
                if prior[:i] == root:
                    ignore_edges.setdefault(spur_node, set()).add(prior[i])
                    ignore_edges.setdefault(prior[i], set()).add(spur_node)
            spur = _bidirectional_bfs(
                adj, spur_node, target, ignore_nodes, ignore_edges
            )
            if spur is not None:
                candidate = root[:-1] + spur
                if candidate not in queued:
                    queued.add(candidate)
                    heappush(heap, (len(candidate), pushes, candidate))
                    pushes += 1
            ignore_nodes.add(spur_node)
    return found


class PathProvider:
    """Caching path oracle over one topology.

    The node ids and adjacency are read from ``graph`` once, at
    construction; the graph must be undirected and must not change
    afterwards.
    """

    def __init__(self, graph: nx.Graph, k_paths: int = 4) -> None:
        """Create a provider enumerating up to ``k_paths`` per OD pair."""
        if k_paths < 1:
            raise ValueError(f"k_paths must be >= 1, got {k_paths}")
        if graph.is_directed():
            raise ValueError("PathProvider needs an undirected graph")
        self.graph = graph
        self.k_paths = k_paths
        self._names = list(graph)
        self._ids = {node: index for index, node in enumerate(self._names)}
        self._adj = [
            [self._ids[neighbour] for neighbour in graph.adj[node]]
            for node in self._names
        ]
        self._cache: Dict[Tuple[str, str], List[Path]] = {}
        self._attachment_cache: Dict[Tuple[int, int], List[Path]] = {}

    def shortest_path(self, source: str, target: str) -> Path:
        """The first of the k shortest paths."""
        return self.paths(source, target)[0]

    def paths(self, source: str, target: str) -> List[Path]:
        """Up to ``k_paths`` loop-free paths, shortest first.

        Raises:
            nx.NodeNotFound: when an endpoint is not in the graph.
            nx.NetworkXNoPath: when the endpoints are disconnected.
        """
        key = (source, target)
        found = self._cache.get(key)
        if found is None:
            found = self._enumerate(source, target)
            if not found:
                raise nx.NetworkXNoPath(f"no path {source} -> {target}")
            self._cache[key] = found
            # Paths are symmetric in an undirected graph: prime the reverse.
            self._cache.setdefault(
                (target, source), [tuple(reversed(path)) for path in found]
            )
        return found

    def _enumerate(self, source: str, target: str) -> List[Path]:
        for node in (source, target):
            if node not in self._ids:
                raise nx.NodeNotFound(f"node {node} not in graph")
        s, t = self._ids[source], self._ids[target]
        adj = self._adj
        if s != t and len(adj[s]) == 1 and len(adj[t]) == 1 and adj[s][0] != t:
            # Both ends are leaves: reuse their attachment switches' paths.
            pair = (adj[s][0], adj[t][0])
            inner = self._attachment_cache.get(pair)
            if inner is None:
                inner = self._attachment_cache[pair] = self._named(*pair)
            return [(source,) + path + (target,) for path in inner]
        return self._named(s, t)

    def _named(self, s: int, t: int) -> List[Path]:
        names = self._names
        return [
            tuple(names[node] for node in path)
            for path in k_shortest_simple_paths(self._adj, s, t, self.k_paths)
        ]

    def ecmp_paths(self, source: str, target: str) -> List[Path]:
        """The equal-cost subset of the k shortest paths."""
        candidates = self.paths(source, target)
        best_length = len(candidates[0])
        return [path for path in candidates if len(path) == best_length]


def path_links(path: Path) -> List[Tuple[str, str]]:
    """The (canonically ordered) links a path traverses."""
    return [tuple(sorted((a, b))) for a, b in zip(path, path[1:])]


def path_switches(path: Path, graph: nx.Graph) -> List[str]:
    """The non-host nodes along a path (where rules must be installed)."""
    return [node for node in path if graph.nodes[node].get("kind") != "host"]
