"""Graph colouring for branch allocation (paper §5.1).

The allocator follows the Chaitin/Briggs register-allocation shape the paper
cites, with the key difference the paper spells out: **there is no spill**.
When a working set has more members than the table has entries, the
overflowing branches simply share an entry, and "the allocation routine
chooses the branches with the fewest conflicts among the working set
branches to map to the same location".

Phases:

1. **Simplify** — repeatedly remove a node with degree < K (it is trivially
   colourable) and push it on a stack.  When no such node exists, remove the
   node with the *smallest weighted degree* (fewest conflicts — the paper's
   sharing victim) and push it marked as an overflow candidate.
2. **Select** — pop nodes and assign each a colour unused by its coloured
   neighbours; a node with no free colour takes the colour that minimises
   the summed interleave weight to its same-coloured neighbours.

Among the conflict-free colours, the allocator picks the one carrying the
least execution weight so far.  Two branches from *different* working sets
can share an entry without any conflict-graph cost (they never interleave),
but each still evicts the other's history across phase transitions; load
balancing spreads branches over the whole table exactly the way the paper's
one-to-one intent implies when the table is big enough.

The result is deterministic: ties break on PC.

Both phases run in O((nodes + edges) log nodes), independent of the colour
count: simplify keeps lazy ``(degree, pc)`` and ``(weighted_degree, pc)``
heaps instead of rescanning the remaining nodes, and select keeps a lazy
``(load, colour)`` heap over the colours in use instead of scanning the
palette (the sizing search probes up to 65,536 colours).  They walk the
graph's cached index form (:meth:`ConflictGraph.indexed`), which the
sizing search's many probes of one graph share.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..analysis.conflict_graph import ConflictGraph


@dataclass(frozen=True)
class ColoringResult:
    """Outcome of one colouring run.

    Attributes:
        assignment: PC -> colour in ``range(colors)``.
        colors: number of colours (BHT entries) made available.
        shared_nodes: PCs that ended up sharing a colour with a conflict
            neighbour (the no-spill overflow case).
        cost: summed interleave weight across same-colour conflict edges.
    """

    assignment: Dict[int, int]
    colors: int
    shared_nodes: frozenset
    cost: int

    @property
    def colors_used(self) -> int:
        """Distinct colours actually assigned."""
        return len(set(self.assignment.values()))


def color_graph(
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
    pcs, neighbors, weights, node_weights = graph.indexed()
    n = len(pcs)
    push, pop = heapq.heappush, heapq.heappop

    # ---- simplify ----------------------------------------------------------
    # Lazy heaps over nodes (index order is PC order), keyed as the ints
    # ``degree * n + node`` and ``weighted_degree * n + node``, which order
    # exactly like the tuples.  Both degrees only ever fall, and every fall
    # of a node on a heap pushes a fresh entry, so the first entry popped
    # for a remaining node is its current one; the older entries pop later
    # and are skipped as the node is gone by then.
    degrees = [len(nbrs) for nbrs in neighbors]
    weighted = [sum(counts) for counts in weights]
    remaining = [True] * n
    # currently-simplifiable nodes (degree < colors), lightest first
    simplifiable = [d * n + i for i, d in enumerate(degrees) if d < colors]
    heapq.heapify(simplifiable)
    # overflow candidates, fewest conflicts first; built on first overflow
    overflow: Optional[List[int]] = None
    stack: List[int] = []
    for _ in range(n):
        victim = -1
        while simplifiable:
            node = pop(simplifiable) % n
            if remaining[node]:
                victim = node
                break
        if victim < 0:
            # overflow: the paper's rule — fewest conflicts shares
            if overflow is None:
                overflow = [
                    weighted[i] * n + i for i in range(n) if remaining[i]
                ]
                heapq.heapify(overflow)
            while True:
                node = pop(overflow) % n
                if remaining[node]:
                    victim = node
                    break
        stack.append(victim)
        remaining[victim] = False
        for node, count in zip(neighbors[victim], weights[victim]):
            if remaining[node]:
                degree = degrees[node] - 1
                degrees[node] = degree
                if degree < colors:
                    push(simplifiable, degree * n + node)
                weight = weighted[node] - count
                weighted[node] = weight
                if overflow is not None:
                    push(overflow, weight * n + node)

    # ---- select ------------------------------------------------------------
    # Every used colour carries load >= 1, so while unused colours remain
    # the least-loaded free colour is the lowest unused one (colours are
    # used in palette order, and a neighbour's colour is always used) and
    # no neighbour needs looking at.  Once all are used, a lazy heap keyed
    # ``load * colors + colour`` yields the least-loaded colour no
    # neighbour holds.  A same-colour edge is counted into the cost when
    # its second endpoint is coloured.  Colours are 0-based until the end.
    color = [-1] * n
    shared: Set[int] = set()
    cost = 0
    next_unused = 0
    load: Dict[int, int] = {}
    by_load: List[int] = []
    for node in reversed(stack):
        if next_unused < colors:
            chosen = next_unused
            next_unused += 1
            load[chosen] = 0
        else:
            # (uncoloured neighbours add -1, which is never a colour)
            taken = {color[other] for other in neighbors[node]}
            chosen = -1
            blocked: List[int] = []
            while by_load:
                key = pop(by_load)
                used, c = divmod(key, colors)
                if load[c] != used:
                    continue  # stale: that colour's load has grown
                if c in taken:
                    blocked.append(key)
                    continue
                chosen = c
                break
            for key in blocked:
                push(by_load, key)
            if chosen < 0:
                # every colour conflicts: take the cheapest one
                conflict: Dict[int, int] = {}
                for other, count in zip(neighbors[node], weights[node]):
                    c = color[other]
                    if c >= 0:
                        conflict[c] = conflict.get(c, 0) + count
                chosen = min(conflict, key=lambda c: (conflict[c], c))
                shared.add(pcs[node])
                cost += conflict[chosen]
        color[node] = chosen
        load[chosen] += node_weights[node] or 1
        push(by_load, load[chosen] * colors + chosen)
    assignment = {
        pcs[node]: color[node] + color_offset for node in reversed(stack)
    }

    return ColoringResult(
        assignment=assignment,
        colors=colors,
        shared_nodes=frozenset(shared),
        cost=cost,
    )


def verify_coloring(
    graph: ConflictGraph, assignment: Dict[int, int]
) -> Tuple[bool, int]:
    """Check an assignment: (conflict-free?, same-colour edge weight)."""
    clashes = 0
    for a, b, count in graph.edges():
        if assignment.get(a) == assignment.get(b):
            clashes += count
    return clashes == 0, clashes
