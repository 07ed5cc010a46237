"""Exact graph-motif search driven by the type decomposition.

A solution occupying a set of type classes forces that set to induce a
connected piece of the type graph, and conversely any connected type set
supports a solution iff (a) the motif fits inside the set's combined color
pool and (b) a "skeleton" exists: one vertex per type of the set, colors
drawn from the motif.  Because classes are fully joined or fully
separated, a skeleton spanning a connected type set is itself connected,
and every further vertex from one of its types attaches to it; missing
colors can therefore be added greedily.  Skeleton existence is a bipartite
matching between motif color occurrences and the set's types.

A skeleton spends a distinct motif occurrence on each type, so a feasible
set has at most |M| types and each of them holds a motif color.  Sets are
grown from each motif-colored root in ascending order, depth first, adding
neighbours in ascending id order, and their other types are motif-colored
types above the root.  Such a set is connected and has at most |M| types,
so it lies in the ball of radius |M| - 1 around its root in those types
(`TypeGraph.component`), and its pool is part of the ball's: just before
growing from a root, the solver skips it whole when the ball's pool misses
some motif color.  A ball lies in its root's component, so this also skips
every root of a component that falls short.  The solver never tests a set
for connectivity: `connected_type_sets` grows exactly the connected sets
of at most |M| types with a given lowest type, as sorted tuples of type
ids, and the pool test, the skeleton and the extension all read one
per-type color table (`color_tables`).  A yes answer reports the witness
of the first feasible set in growth order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, Sequence

from .decomposition import (
    TypeGraph,
    TypePartition,
    build_type_graph,
    compute_type_partition,
    mask_members,
)
from .instances import (
    MotifInstance,
    SolveReport,
    induced_connected,
    validate_motif_witness,
)
from .matching import max_bipartite_matching


@dataclass(frozen=True)
class CandidateTypeSet:
    """A nonempty set of type ids, with its quotient-connectivity flag."""

    types: tuple[int, ...]
    connected: bool


@dataclass(frozen=True)
class MotifWitness:
    vertices: tuple[int, ...]


def candidate_type_set(type_graph: TypeGraph, types: tuple[int, ...]) -> CandidateTypeSet:
    """Wrap a set of distinct type ids, computing connectivity inside the
    type graph; an empty or repeating ``types`` raises ``ValueError``.

    The solver does not call this (`connected_type_sets` yields only
    connected sets); it stays only as a test reference and as a hook of the
    benchmark's tracer.
    """
    types = tuple(sorted(types))
    if not types or len(set(types)) < len(types):
        raise ValueError(f"candidate type set {types} is empty or repeats a type")
    mask = sum(1 << t for t in types)
    reached = type_graph.component(types[0], mask, len(types))
    return CandidateTypeSet(types, reached == mask)


def connected_type_sets(
    type_graph: TypeGraph, root: int, allowed: int, max_size: int
) -> Iterator[tuple[int, ...]]:
    """Every connected set of at most ``max_size`` types of the mask
    ``allowed`` whose lowest type is ``root``, once each.

    Sets are grown depth first, adding frontier types in ascending id
    order.  A frame holds bitmasks of the ``chosen`` types, the
    ``frontier`` still to try and the ``banned`` types (chosen, below the
    root, or a sibling whose branch is done), so each set is reached along
    one path only and the stack never exceeds ``max_size``.
    """
    masks = type_graph.masks
    yield (root,)
    below = (2 << root) - 1
    stack = [[1 << root, masks[root] & allowed & ~below, below]]
    while stack:
        frame = stack[-1]
        chosen, frontier, banned = frame
        if not frontier or len(stack) == max_size:
            stack.pop()
            continue
        low = frontier & -frontier
        banned |= low
        frame[1], frame[2] = frontier ^ low, banned
        chosen |= low
        yield mask_members(chosen)
        frontier = (frontier | masks[low.bit_length() - 1] & allowed) & ~banned
        stack.append([chosen, frontier, banned])


def color_tables(
    instance: MotifInstance, partition: TypePartition
) -> list[dict[int, list[int]]]:
    """Per type: color -> the type's members of that color, ascending."""
    tables: list[dict[int, list[int]]] = []
    for members in partition.classes:
        table: dict[int, list[int]] = {}
        for v in members:
            table.setdefault(instance.vertex_color[v], []).append(v)
        tables.append(table)
    return tables


def skeleton_exists(
    instance: MotifInstance,
    tables: list[dict[int, list[int]]],
    types: tuple[int, ...],
) -> dict[int, int] | None:
    """One vertex per type with colors inside the motif, as ``{type: vertex}``.

    Builds a bipartite graph with one node per occurrence of each motif
    color and one node per type, an edge whenever the type contains the
    color; a skeleton exists iff a maximum matching leaves no type
    unmatched, and None is returned otherwise.  Matched types take their
    lowest vertex of the matched color, so distinct types always map to
    distinct concrete vertices.
    """
    occurrences: list[int] = []
    for color, count in sorted(instance.motif_counts().items()):
        # a matching saturating the types never uses a color more often
        # than there are types, so extra occurrences cannot matter
        occurrences.extend([color] * min(count, len(types)))
    edges = [
        (i, j)
        for i, color in enumerate(occurrences)
        for j, t in enumerate(types)
        if color in tables[t]
    ]
    size, match_left = max_bipartite_matching(len(occurrences), len(types), edges)
    if size < len(types):
        return None
    return {
        types[j]: tables[types[j]][occurrences[i]][0]
        for i, j in enumerate(match_left)
        if j >= 0
    }


def extend_skeleton(
    instance: MotifInstance,
    tables: list[dict[int, list[int]]],
    types: tuple[int, ...],
    chosen: dict[int, int],
) -> MotifWitness:
    """Grow the skeleton ``chosen`` with vertices of ``types`` until the colors match.

    Types are scanned in the given order, and each takes its lowest
    unpicked vertices of every color the motif still needs, so the witness
    is deterministic; the caller guarantees the set's color pool covers the
    motif, which makes exhaustion impossible.
    """
    need = instance.motif_counts()
    need.subtract(instance.vertex_color[v] for v in chosen.values())
    picked = set(chosen.values())
    for t in types:
        for color, members in tables[t].items():
            for v in members:
                if need.get(color, 0) <= 0:
                    break
                if v not in picked:
                    need[color] -= 1
                    picked.add(v)
    assert not +need, "type set color pool cannot cover the motif"
    return MotifWitness(tuple(sorted(picked)))


def solve_motif(instance: MotifInstance) -> SolveReport:
    """Decide whether the graph contains the motif; report a witness on yes."""
    start = time.perf_counter()
    partition = compute_type_partition(instance.graph)
    type_graph = build_type_graph(instance.graph, partition)
    k = partition.num_types

    tables = color_tables(instance, partition)
    want = instance.motif_counts()
    size = len(instance.motif)

    def short(types: Sequence[int]) -> bool:
        """True if the types together hold fewer of some motif color than it asks."""
        return any(
            sum(len(tables[t].get(c, ())) for t in types) < count
            for c, count in want.items()
        )

    colored = [t for t in range(k) if any(c in tables[t] for c in want)]
    colored_mask = sum(1 << t for t in colored)

    def grown() -> Iterator[tuple[int, ...]]:
        for root in colored:
            # a set grown from root is connected, with at most `size` colored
            # types >= root, so it lies within size - 1 steps of root; pools
            # only grow as types join, so a short ball holds no feasible set
            ball = type_graph.component(root, colored_mask >> root << root, size - 1)
            if not short(mask_members(ball)):
                yield from connected_type_sets(type_graph, root, ball, size)

    witness: MotifWitness | None = None
    for types in grown():
        if len(types) == 1 and size > 1 and not partition.clique_flag[types[0]]:
            # a lone independent type hosts only a one-vertex motif
            continue
        if short(types):
            continue
        chosen = skeleton_exists(instance, tables, types)
        if chosen is None:
            continue
        # every grown set is connected, and fully-joined classes make any
        # one-vertex-per-type pick across a connected set connected
        assert induced_connected(instance.graph, chosen.values())
        witness = extend_skeleton(instance, tables, types, chosen)
        break

    if witness is not None:
        validate_motif_witness(instance, witness.vertices)
    return SolveReport.finish(start, k, witness)
