"""Graph colouring tests: validity, overflow sharing, load balancing, and
property-based checks on random graphs.

``reference_color_graph`` below is the original rescanning colouring,
kept verbatim as the oracle for the heap-driven one: Figure 3's index
maps come from these assignments, so every field of the result —
assignment (in insertion order), shared nodes and cost — must match.
The sizing property checks ``required_bht_size`` against an exhaustive
scan of every table size.
"""

from typing import Dict, List, Set

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation.allocator import BranchAllocator
from repro.allocation.coloring import (
    ColoringResult,
    color_graph,
    verify_coloring,
)
from repro.allocation.sizing import _beats, required_bht_size
from repro.analysis.conflict_graph import ConflictGraph


def _clique(members, weight=100):
    graph = ConflictGraph()
    for i, a in enumerate(members):
        graph.add_node(a, weight=10)
        for b in members[i + 1:]:
            graph.add_edge(a, b, weight)
    return graph


def test_clique_colored_conflict_free_when_colors_suffice():
    graph = _clique([1, 2, 3, 4])
    result = color_graph(graph, colors=4)
    ok, clashes = verify_coloring(graph, result.assignment)
    assert ok and clashes == 0
    assert result.cost == 0
    assert result.colors_used == 4
    assert not result.shared_nodes


def test_overflow_shares_cheapest_color():
    graph = _clique([1, 2, 3], weight=100)
    result = color_graph(graph, colors=2)
    assert result.cost == 100       # exactly one edge shares
    assert len(result.shared_nodes) == 1


def test_overflow_victim_has_fewest_conflicts():
    # node 4 is lightly connected: the paper's rule shares it first
    graph = _clique([1, 2, 3], weight=1000)
    graph.add_node(4, weight=1)
    graph.add_edge(1, 4, 10)
    graph.add_edge(2, 4, 10)
    graph.add_edge(3, 4, 10)
    result = color_graph(graph, colors=3)
    # sharing 4 with one of {1,2,3} costs 10; sharing among the heavy
    # clique would cost 1000
    assert result.cost == 10


def test_zero_colors_rejected():
    with pytest.raises(ValueError):
        color_graph(_clique([1, 2]), colors=0)


def test_color_offset_shifts_palette():
    graph = _clique([1, 2, 3])
    result = color_graph(graph, colors=3, color_offset=2)
    assert set(result.assignment.values()) <= {2, 3, 4}


def test_load_balancing_spreads_independent_nodes():
    # 8 isolated nodes, 4 colours: each colour carries exactly 2 nodes
    graph = ConflictGraph()
    for pc in range(8):
        graph.add_node(pc, weight=10)
    result = color_graph(graph, colors=4)
    from collections import Counter

    loads = Counter(result.assignment.values())
    assert sorted(loads.values()) == [2, 2, 2, 2]


def test_load_balancing_respects_execution_weight():
    # one heavy node and three light ones, 2 colours: the heavy node's
    # colour receives fewer companions
    graph = ConflictGraph()
    graph.add_node(0, weight=1000)
    for pc in (1, 2, 3):
        graph.add_node(pc, weight=10)
    result = color_graph(graph, colors=2)
    heavy_color = result.assignment[0]
    companions = [
        pc for pc in (1, 2, 3) if result.assignment[pc] == heavy_color
    ]
    assert len(companions) <= 1


def test_deterministic():
    graph = _clique([5, 1, 9, 3])
    graph.add_edge(5, 11, 50)
    a = color_graph(graph, colors=3).assignment
    b = color_graph(graph, colors=3).assignment
    assert a == b


def test_empty_graph():
    result = color_graph(ConflictGraph(), colors=4)
    assert result.assignment == {}
    assert result.cost == 0


def test_verify_coloring_reports_clash_weight():
    graph = _clique([1, 2], weight=77)
    ok, clashes = verify_coloring(graph, {1: 0, 2: 0})
    assert not ok and clashes == 77


@settings(max_examples=60, deadline=None)
@given(
    edges=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=12),
            st.integers(min_value=0, max_value=12),
            st.integers(min_value=1, max_value=500),
        ),
        max_size=50,
    ),
    colors=st.integers(min_value=1, max_value=6),
)
def test_coloring_invariants_on_random_graphs(edges, colors):
    graph = ConflictGraph()
    for a, b, weight in edges:
        if a != b:
            graph.add_edge(a, b, weight)
    result = color_graph(graph, colors=colors)
    # every node coloured, all colours in range
    assert set(result.assignment) == set(graph.nodes())
    assert all(0 <= c < colors for c in result.assignment.values())
    # reported cost matches an independent recount
    _, clashes = verify_coloring(graph, result.assignment)
    assert clashes == result.cost
    # enough colours -> zero cost (greedy is safe below the degree bound)
    max_degree = max(
        (graph.degree(pc) for pc in graph.nodes()), default=0
    )
    if colors > max_degree:
        assert result.cost == 0


@settings(max_examples=30, deadline=None)
@given(
    edges=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10),
            st.integers(min_value=0, max_value=10),
        ),
        max_size=40,
    )
)
def test_cost_non_increasing_in_colors(edges):
    graph = ConflictGraph()
    for a, b in edges:
        if a != b:
            graph.add_edge(a, b, 100)
    costs = [
        color_graph(graph, colors=k).cost for k in (1, 2, 4, 8, 16)
    ]
    assert costs == sorted(costs, reverse=True)


# -- oracle: the original O(n^2 + n*K) colouring, verbatim -------------------


def reference_color_graph(
    graph: ConflictGraph,
    colors: int,
    color_offset: int = 0,
) -> ColoringResult:
    """Colour *graph* with *colors* colours, minimising shared-entry weight.

    Args:
        graph: the pruned conflict graph.
        colors: available colours (BHT entries); must be positive.
        color_offset: first colour number to use (the classified allocator
            reserves low entries for biased classes).

    Raises:
        ValueError: if *colors* is not positive.
    """
    if colors <= 0:
        raise ValueError(f"colors must be positive, got {colors}")

    # ---- simplify ----------------------------------------------------------
    degrees: Dict[int, int] = {pc: graph.degree(pc) for pc in graph.nodes()}
    weighted: Dict[int, int] = {
        pc: graph.weighted_degree(pc) for pc in graph.nodes()
    }
    remaining: Set[int] = set(degrees)
    # bucket of currently-simplifiable nodes (degree < colors)
    stack: List[int] = []
    while remaining:
        simplifiable = [pc for pc in remaining if degrees[pc] < colors]
        if simplifiable:
            # remove all currently simplifiable nodes, lightest first for
            # determinism (order within this batch does not affect safety)
            simplifiable.sort(key=lambda pc: (degrees[pc], pc))
            victim = simplifiable[0]
        else:
            # overflow: the paper's rule — fewest conflicts shares
            victim = min(remaining, key=lambda pc: (weighted[pc], pc))
        stack.append(victim)
        remaining.discard(victim)
        for neighbor, weight in graph.neighbors(victim).items():
            if neighbor in remaining:
                degrees[neighbor] -= 1
                weighted[neighbor] -= weight

    # ---- select ------------------------------------------------------------
    assignment: Dict[int, int] = {}
    shared: Set[int] = set()
    palette = list(range(color_offset, color_offset + colors))
    load: Dict[int, int] = {color: 0 for color in palette}
    while stack:
        pc = stack.pop()
        neighbor_colors: Dict[int, int] = {}
        for neighbor, weight in graph.neighbors(pc).items():
            color = assignment.get(neighbor)
            if color is not None:
                neighbor_colors[color] = neighbor_colors.get(color, 0) + weight
        free = [color for color in palette if color not in neighbor_colors]
        if free:
            # conflict-free: balance execution weight across the table
            chosen = min(free, key=lambda c: (load[c], c))
        else:
            # every colour conflicts: take the cheapest one
            chosen = min(palette, key=lambda c: (neighbor_colors[c], c))
            shared.add(pc)
        assignment[pc] = chosen
        load[chosen] += graph.node_weight(pc) or 1

    cost = 0
    for a, b, count in graph.edges():
        if assignment[a] == assignment[b]:
            cost += count
    return ColoringResult(
        assignment=assignment,
        colors=colors,
        shared_nodes=frozenset(shared),
        cost=cost,
    )


#: random weighted conflict graphs: node weights (execution counts, 0
#: included) and accumulated edge counts over a small PC alphabet
weighted_graphs = st.builds(
    lambda weights, edges: _weighted_graph(weights, edges),
    st.dictionaries(
        st.integers(0, 40).map(lambda i: 0x1000 + 4 * i),
        st.integers(0, 500),
        max_size=25,
    ),
    st.lists(
        st.tuples(
            st.integers(0, 40).map(lambda i: 0x1000 + 4 * i),
            st.integers(0, 40).map(lambda i: 0x1000 + 4 * i),
            st.integers(1, 300),
        ),
        max_size=120,
    ),
)


def _weighted_graph(weights, edges):
    graph = ConflictGraph()
    for pc, weight in weights.items():
        graph.add_node(pc, weight)
    for a, b, count in edges:
        if a != b:
            graph.add_edge(a, b, count)
    return graph


@settings(max_examples=200, deadline=None)
@given(
    graph=weighted_graphs,
    data=st.data(),
    color_offset=st.sampled_from([0, 1, 2, 7]),
)
def test_heap_coloring_matches_reference(graph, data, color_offset):
    nodes = graph.node_count
    max_degree = max((graph.degree(pc) for pc in graph.nodes()), default=0)
    # 1 colour (everything overflows) up to more colours than nodes
    colors = data.draw(
        st.sampled_from(
            sorted({1, 2, 3, max(1, max_degree), max_degree + 1, nodes + 2})
        )
        | st.integers(1, nodes + 3)
    )
    got = color_graph(graph, colors, color_offset)
    want = reference_color_graph(graph, colors, color_offset)
    assert got == want
    assert list(got.assignment.items()) == list(want.assignment.items())


@settings(max_examples=100, deadline=None)
@given(
    graph=weighted_graphs,
    min_size=st.sampled_from([1, 2, 4]),
    data=st.data(),
)
def test_required_bht_size_is_the_exhaustive_minimum(graph, min_size, data):
    max_size = 64
    allocator = BranchAllocator.from_graph(graph)
    costs = {
        size: allocator.allocate(size).cost
        for size in range(min_size, max_size + 1)
    }
    baseline = data.draw(
        st.sampled_from(sorted(set(costs.values()) | {0, 1}))
        | st.integers(0, 5000)
    )
    beating = [size for size, cost in costs.items() if _beats(cost, baseline)]
    if not beating:
        with pytest.raises(RuntimeError):
            required_bht_size(allocator, baseline, min_size, max_size)
        return
    result = required_bht_size(allocator, baseline, min_size, max_size)
    assert result.required_size == min(beating)
    assert result.achieved_cost == costs[min(beating)]
