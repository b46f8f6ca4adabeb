"""The branch conflict graph (paper §4.1 step 2, Figure 2).

Nodes are static conditional branches; an edge between two nodes carries the
number of times their execution interleaved during the profile run.  The
graph supports the paper's refinement step — pruning edges below a threshold
(default 100) — and the classification-based edge filtering of §5.2.

Implemented natively (adjacency dict-of-dicts) rather than with networkx:
the allocator needs cheap degree updates, neighbour iteration during
colouring and deterministic ordering, which are simpler to guarantee on a
purpose-built structure.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from ..profiling.profile import InterleaveProfile, pair_key

DEFAULT_THRESHOLD = 100


class IndexedGraph(NamedTuple):
    """A graph's adjacency over dense node indices (node ``i`` is
    ``pcs[i]``, PCs ascending, so index order is PC order)."""

    pcs: List[int]
    neighbors: List[List[int]]
    weights: List[List[int]]  # edge count per neighbour, same order
    node_weights: List[int]


class ConflictGraph:
    """Weighted undirected graph over static branch PCs."""

    def __init__(self) -> None:
        self._adjacency: Dict[int, Dict[int, int]] = {}
        self._node_weight: Dict[int, int] = {}
        self._indexed: Optional[IndexedGraph] = None

    # -- construction ---------------------------------------------------------

    def add_node(self, pc: int, weight: int = 0) -> None:
        """Add branch *pc* (idempotent); *weight* is its execution count."""
        self._indexed = None
        if pc not in self._adjacency:
            self._adjacency[pc] = {}
        self._node_weight[pc] = max(self._node_weight.get(pc, 0), weight)

    def add_edge(self, a: int, b: int, count: int) -> None:
        """Add (or accumulate onto) the conflict edge between *a* and *b*.

        Raises:
            ValueError: for self-loops or non-positive counts.
        """
        if a == b:
            raise ValueError("conflict graph cannot contain self-loops")
        if count <= 0:
            raise ValueError(f"edge count must be positive, got {count}")
        self.add_node(a)
        self.add_node(b)
        self._indexed = None
        self._adjacency[a][b] = self._adjacency[a].get(b, 0) + count
        self._adjacency[b][a] = self._adjacency[b].get(a, 0) + count

    def remove_edge(self, a: int, b: int) -> None:
        """Remove the edge between *a* and *b* if present."""
        self._indexed = None
        self._adjacency.get(a, {}).pop(b, None)
        self._adjacency.get(b, {}).pop(a, None)

    # -- queries ---------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._adjacency)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self._adjacency.values()) // 2

    def nodes(self) -> List[int]:
        """All branch PCs, ascending (deterministic iteration order)."""
        return sorted(self._adjacency)

    def has_node(self, pc: int) -> bool:
        return pc in self._adjacency

    def has_edge(self, a: int, b: int) -> bool:
        return b in self._adjacency.get(a, {})

    def edge_weight(self, a: int, b: int) -> int:
        """Interleave count on the edge (0 if absent)."""
        return self._adjacency.get(a, {}).get(b, 0)

    def node_weight(self, pc: int) -> int:
        """Execution count recorded for the branch."""
        return self._node_weight.get(pc, 0)

    def neighbors(self, pc: int) -> Dict[int, int]:
        """Neighbour -> edge weight mapping (do not mutate)."""
        return self._adjacency.get(pc, {})

    def degree(self, pc: int) -> int:
        return len(self._adjacency.get(pc, {}))

    def weighted_degree(self, pc: int) -> int:
        """Sum of incident edge counts."""
        return sum(self._adjacency.get(pc, {}).values())

    def indexed(self) -> IndexedGraph:
        """The adjacency over dense node indices, cached until the graph
        next changes (the sizing search colours one graph many times)."""
        if self._indexed is None:
            pcs = self.nodes()
            index = {pc: i for i, pc in enumerate(pcs)}
            adjacency = [self._adjacency[pc] for pc in pcs]
            self._indexed = IndexedGraph(
                pcs=pcs,
                neighbors=[[index[b] for b in nbrs] for nbrs in adjacency],
                weights=[list(nbrs.values()) for nbrs in adjacency],
                node_weights=[self._node_weight.get(pc, 0) for pc in pcs],
            )
        return self._indexed

    def edges(self) -> Iterator[Tuple[int, int, int]]:
        """Yield (low PC, high PC, count), deterministically ordered."""
        for a in sorted(self._adjacency):
            for b in sorted(self._adjacency[a]):
                if a < b:
                    yield a, b, self._adjacency[a][b]

    # -- transforms --------------------------------------------------------------

    def copy(self) -> "ConflictGraph":
        clone = ConflictGraph()
        clone._adjacency = {
            pc: dict(nbrs) for pc, nbrs in self._adjacency.items()
        }
        clone._node_weight = dict(self._node_weight)
        return clone

    def pruned(self, threshold: int = DEFAULT_THRESHOLD) -> "ConflictGraph":
        """A copy with edges below *threshold* removed (paper §4.2).

        Nodes are kept even if they lose all edges — an isolated branch is a
        singleton working set.
        """
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        clone = ConflictGraph()
        for pc in self._adjacency:
            clone.add_node(pc, self._node_weight.get(pc, 0))
        for a, b, count in self.edges():
            if count >= threshold:
                clone.add_edge(a, b, count)
        return clone

    def filtered_edges(
        self, drop: Callable[[int, int], bool]
    ) -> "ConflictGraph":
        """A copy without the edges for which ``drop(a, b)`` is true."""
        clone = ConflictGraph()
        for pc in self._adjacency:
            clone.add_node(pc, self._node_weight.get(pc, 0))
        for a, b, count in self.edges():
            if not drop(a, b):
                clone.add_edge(a, b, count)
        return clone

    def subgraph(self, keep: Iterable[int]) -> "ConflictGraph":
        """The induced subgraph over the given PCs."""
        keep_set = set(keep)
        clone = ConflictGraph()
        for pc in self._adjacency:
            if pc in keep_set:
                clone.add_node(pc, self._node_weight.get(pc, 0))
        for a, b, count in self.edges():
            if a in keep_set and b in keep_set:
                clone.add_edge(a, b, count)
        return clone

    def __repr__(self) -> str:
        return (
            f"ConflictGraph(nodes={self.node_count}, edges={self.edge_count})"
        )


def build_conflict_graph(
    profile: InterleaveProfile,
    threshold: int = DEFAULT_THRESHOLD,
    restrict_to: Optional[Iterable[int]] = None,
) -> ConflictGraph:
    """Build the pruned conflict graph from a profile.

    Args:
        profile: output of the interleave analysis.
        threshold: minimum interleave count for an edge to survive
            (the paper uses 100 and reports insensitivity up to 1000).
        restrict_to: optional static-branch subset (the Table 1 frequency
            cutoff); other branches are dropped entirely.
    """
    keep = set(restrict_to) if restrict_to is not None else None
    graph = ConflictGraph()
    for pc, stats in profile.branches.items():
        if keep is None or pc in keep:
            graph.add_node(pc, stats.executions)
    for (a, b), count in profile.pairs.items():
        if count < threshold:
            continue
        if keep is not None and (a not in keep or b not in keep):
            continue
        graph.add_edge(*pair_key(a, b), count)
    return graph
