"""The path enumeration against its oracle, networkx's shortest_simple_paths.

Two claims are checked.  The integer-id Yen port returns exactly
networkx's first k paths, in networkx's order, on every graph.  The
provider (the port plus the leaf-leaf reuse of attachment-switch paths)
returns exactly networkx's paths on the shipped topologies; on arbitrary
graphs the reuse is only guaranteed to give k shortest simple paths, so
there the order is not compared.
"""

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import (
    FatTreeSpec,
    PathProvider,
    abilene,
    build_fat_tree,
    geant,
    quest,
)
from repro.topology.routing import k_shortest_simple_paths

K = 4

SHIPPED = {
    "fat-tree-k4": lambda: build_fat_tree(FatTreeSpec(k=4)),
    "fat-tree-k8": lambda: build_fat_tree(FatTreeSpec(k=8)),
    "geant": geant,
    "abilene": abilene,
    "quest": quest,
}


def networkx_paths(graph, source, target, k=K):
    """The oracle: networkx's first k shortest simple paths, [] if none."""
    try:
        return [
            tuple(path)
            for path in itertools.islice(
                nx.shortest_simple_paths(graph, source, target), k
            )
        ]
    except nx.NetworkXNoPath:
        return []


def port(graph):
    """The port over ``graph``: ``(source, target, k)`` -> named paths."""
    names = list(graph)
    ids = {node: index for index, node in enumerate(names)}
    adj = [[ids[w] for w in graph.adj[node]] for node in names]

    def paths(source, target, k=K):
        return [
            tuple(names[node] for node in path)
            for path in k_shortest_simple_paths(adj, ids[source], ids[target], k)
        ]

    return paths


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_port_and_provider_equal_networkx_on_every_ordered_pair(name):
    graph = SHIPPED[name]()
    port_paths = port(graph)
    for source in graph:
        # One provider per source: no pair is answered from the reverse
        # priming of the endpoint cache, while the attachment cache is
        # shared by every target.
        provider = PathProvider(graph, k_paths=K)
        for target in graph:
            expected = networkx_paths(graph, source, target)
            assert port_paths(source, target) == expected, (source, target)
            assert provider.paths(source, target) == expected, (source, target)


def _asymmetric_edge_pair(graph):
    """Edge switches (a, b) whose networkx paths a->b are not the
    reversed paths b->a."""
    edges = sorted(n for n, d in graph.nodes(data=True) if d["kind"] == "edge")
    for a, b in itertools.permutations(edges, 2):
        reversed_back = [path[::-1] for path in networkx_paths(graph, b, a)]
        if networkx_paths(graph, a, b) != reversed_back:
            return a, b
    raise AssertionError("no asymmetric edge-switch pair")


def _hosts_on(graph, switch):
    return sorted(n for n in graph.adj[switch] if graph.nodes[n]["kind"] == "host")


@pytest.mark.parametrize("forward_first", [True, False])
def test_attachment_cache_keeps_both_directions_apart(forward_first):
    graph = build_fat_tree(FatTreeSpec(k=4))
    a, b = _asymmetric_edge_pair(graph)
    left, right = _hosts_on(graph, a), _hosts_on(graph, b)
    # Distinct host pairs, so neither query is answered by the endpoint
    # cache's reverse priming; both go through the attachment cache.
    queries = [(left[0], right[0]), (right[1], left[1])]
    if not forward_first:
        queries.reverse()
    provider = PathProvider(graph, k_paths=K)
    for source, target in queries:
        assert provider.paths(source, target) == networkx_paths(
            graph, source, target
        )


def test_endpoint_cache_primes_the_reversed_pair():
    graph = geant()
    provider = PathProvider(graph, k_paths=K)
    forward = provider.paths("UK", "LU")
    assert provider.paths("LU", "UK") == [path[::-1] for path in forward]


class TestEdgeCases:
    @pytest.fixture
    def graph(self):
        return build_fat_tree(FatTreeSpec(k=4))

    def test_same_endpoint(self, graph):
        provider = PathProvider(graph)
        assert provider.paths("host-0-0-0", "host-0-0-0") == [("host-0-0-0",)]
        assert provider.paths("edge-0-0", "edge-0-0") == [("edge-0-0",)]

    def test_leaf_and_its_own_switch(self, graph):
        provider = PathProvider(graph)
        for source, target in (("host-0-0-0", "edge-0-0"), ("edge-0-0", "host-0-0-0")):
            paths = provider.paths(source, target)
            assert paths == networkx_paths(graph, source, target)
            assert paths[0] == (source, target)

    def test_two_leaves_on_one_switch(self, graph):
        provider = PathProvider(graph)
        paths = provider.paths("host-0-0-0", "host-0-0-1")
        assert paths == [("host-0-0-0", "edge-0-0", "host-0-0-1")]
        assert paths == networkx_paths(graph, "host-0-0-0", "host-0-0-1")

    def test_leaves_on_adjacent_ends_of_one_link(self):
        graph = nx.Graph([("a", "b")])
        assert PathProvider(graph).paths("a", "b") == [("a", "b")]

    def test_disconnected_endpoints_raise(self):
        graph = nx.Graph([("h1", "s1"), ("s1", "x"), ("h2", "s2"), ("s2", "y")])
        provider = PathProvider(graph)
        for source, target in (("h1", "h2"), ("h1", "s2"), ("s1", "y")):
            with pytest.raises(nx.NetworkXNoPath):
                provider.paths(source, target)

    def test_directed_graph_rejected(self):
        with pytest.raises(ValueError, match="undirected"):
            PathProvider(nx.DiGraph([("a", "b")]))

    def test_unknown_endpoint_raises(self, graph):
        with pytest.raises(nx.NodeNotFound):
            PathProvider(graph).paths("host-0-0-0", "nowhere")

    def test_single_path_per_pair(self, graph):
        provider = PathProvider(graph, k_paths=1)
        for source, target in itertools.product(sorted(graph)[::3], sorted(graph)[::5]):
            assert provider.paths(source, target) == networkx_paths(
                graph, source, target, k=1
            )

    def test_no_cache_outlives_its_provider(self, graph):
        first = PathProvider(graph)
        first.paths("host-0-0-0", "host-3-1-1")
        first.paths("edge-0-0", "core-0")
        assert first._cache and first._attachment_cache
        second = PathProvider(graph)
        assert second._cache == {} and second._attachment_cache == {}


@st.composite
def graphs_with_leaves(draw):
    """A small random core, some leaves hung off it, and sometimes a
    separate component, so that leaf-leaf, leaf-core and disconnected
    pairs all occur.  Edges are added in drawn order, which fixes G.adj
    order."""
    core = draw(st.integers(min_value=1, max_value=7))
    pairs = [(u, v) for u in range(core) for v in range(u + 1, core)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    graph = nx.Graph()
    graph.add_nodes_from(f"n{node}" for node in range(core))
    graph.add_edges_from((f"n{u}", f"n{v}") for u, v in edges)
    attach = draw(st.lists(st.integers(min_value=0, max_value=core - 1), max_size=5))
    for index, switch in enumerate(attach):
        graph.add_edge(f"leaf{index}", f"n{switch}")
    if draw(st.booleans()):
        graph.add_edge("island-host", "island-switch")
        graph.add_edge("island-switch", "island-other")
    return graph


@settings(max_examples=150, deadline=None)
@given(graph=graphs_with_leaves(), k=st.integers(min_value=1, max_value=6))
def test_port_equals_networkx_on_random_graphs(graph, k):
    port_paths = port(graph)
    for source, target in itertools.product(graph, repeat=2):
        assert port_paths(source, target, k) == networkx_paths(
            graph, source, target, k
        ), (source, target)


def _is_simple_path(graph, path, source, target):
    return (
        path[0] == source
        and path[-1] == target
        and len(set(path)) == len(path)
        and all(graph.has_edge(u, v) for u, v in zip(path, path[1:]))
    )


@settings(max_examples=150, deadline=None)
@given(graph=graphs_with_leaves(), k=st.integers(min_value=1, max_value=6))
def test_provider_gives_k_shortest_paths_on_random_graphs(graph, k):
    provider = PathProvider(graph, k_paths=k)
    for source, target in itertools.product(graph, repeat=2):
        expected = networkx_paths(graph, source, target, k)
        if not expected:
            with pytest.raises(nx.NetworkXNoPath):
                provider.paths(source, target)
            continue
        found = provider.paths(source, target)
        assert len(set(found)) == len(found)
        assert all(_is_simple_path(graph, path, source, target) for path in found)
        assert [len(path) for path in found] == [len(path) for path in expected]
