"""Exact vertex-disjoint paths via path categories and integer feasibility.

Every solvable instance has a solution in which each path visits at most
one non-endpoint vertex per type (:func:`simplify_path` turns any path
into such a form by shortcutting between repeated types).  A simple path
is described up to vertex choice by its category: the endpoint types plus
the chain of types its internal vertices traverse.  Counting paths per
category turns the problem into a small integer system:

* per endpoint-type pair, the category counts must add up to the number of
  terminal pairs with those endpoint types;
* per type, the paths routed through it may not outnumber its vertices
  left over after the fixed terminals are set aside.

Only inclusion-minimal routes need a category: demand rows ignore the
route, and capacity rows only get looser on a sub-route.  The minimal
routes are the chordless chains ``s, T1..Tr, t`` of the type graph, where
only consecutive members link (:func:`minimal_chains`).

Within a type all vertices look alike, so a feasible count table converts
greedily back into concrete disjoint paths.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

from .decomposition import (
    TypeGraph,
    TypePartition,
    build_type_graph,
    compute_type_partition,
)
from .graphs import Graph
from .ilp import IlpProblem, LinearConstraint, solve_feasibility
from .instances import PathsInstance, SolveReport, validate_paths_witness


@dataclass(frozen=True)
class PathCategory:
    """Endpoint types (normalized start <= end) plus the chordless chain of
    types between them, in order from the start type.  Its count variable is
    its position in the category tuple that :func:`build_paths_ilp` returns."""

    start_type: int
    end_type: int
    chain: tuple[int, ...]


@dataclass(frozen=True)
class PathsWitness:
    paths: tuple[tuple[int, ...], ...]


def minimal_chains(
    type_graph: TypeGraph, s_type: int, t_type: int
) -> Iterator[tuple[int, ...]]:
    """Yield the inclusion-minimal routes from ``s_type`` to ``t_type``.

    Types link when adjacent in the type graph or the same clique type.  A
    chain T1..Tr is yielded when, in ``s_type, T1..Tr, t_type``, exactly
    the consecutive members link: any other link would shortcut to a
    smaller route.  Depth-first on an explicit stack, lowest type id
    first, each chain once.  A candidate is tested in O(1): ``near[x]``
    counts the chain members before the last that are adjacent to ``x``.
    ``near[s_type]`` starts at 1, and every later member but the last has
    its predecessor among those, so a type already on the chain is never
    a candidate either.
    """
    linked = type_graph.linked
    if linked(s_type, t_type):
        yield ()
        return
    adj = type_graph.adj
    near = [0] * type_graph.num_types
    near[s_type] = 1
    path = [s_type]
    stack = [iter(adj[s_type])]  # stack[i] walks the neighbours of path[i]
    while stack:
        for x in stack[-1]:
            if near[x]:
                continue
            if linked(x, t_type):
                yield tuple(path[1:]) + (x,)
            else:
                for w in adj[path[-1]]:
                    near[w] += 1
                path.append(x)
                stack.append(iter(adj[x]))
                break
        else:
            stack.pop()
            path.pop()
            if path:
                for w in adj[path[-1]]:
                    near[w] -= 1


def route_is_valid(
    type_graph: TypeGraph, route: frozenset[int] | set[int], s_type: int, t_type: int
) -> bool:
    """Whether a path with these endpoint types can traverse exactly ``route``."""
    linked = type_graph.linked
    types = sorted(route)
    if not types:
        return linked(s_type, t_type)
    r = len(types)
    ends = [0] * (1 << r)  # bit i: a chain from s_type over mask can end at types[i]
    for i, t in enumerate(types):
        if linked(s_type, t):
            ends[1 << i] = 1 << i
    for mask in range(1, 1 << r):
        for last in range(r):
            if ends[mask] >> last & 1:
                for nxt in range(r):
                    if not mask >> nxt & 1 and linked(types[last], types[nxt]):
                        ends[mask | 1 << nxt] |= 1 << nxt
    full = (1 << r) - 1
    return any(ends[full] >> i & 1 and linked(types[i], t_type) for i in range(r))


def simplify_path(
    graph: Graph, partition: TypePartition, path: Sequence[int]
) -> tuple[int, ...]:
    """Shrink a path until no type occurs twice among its internal vertices.

    While some type has two internal occurrences, shortcut from its first
    internal occurrence x straight to the successor z of its last internal
    occurrence y: z neighbors y, and same-type x and y have equal
    neighborhoods apart from each other, so z neighbors x too.  Endpoints,
    vertex subset and validity are preserved, and the path strictly
    shrinks, so this terminates.
    """
    verts = list(path)
    if len(set(verts)) != len(verts):
        raise ValueError("input path repeats a vertex")
    for u, v in zip(verts, verts[1:]):
        if not graph.has_edge(u, v):
            raise ValueError(f"input path uses the missing edge ({u}, {v})")
    type_of = partition.type_of
    while True:
        internal_count = Counter(type_of[v] for v in verts[1:-1])
        offender = next(
            (
                type_of[v]
                for v in verts[1:-1]
                if internal_count[type_of[v]] >= 2
            ),
            None,
        )
        if offender is None:
            return tuple(verts)
        hits = [
            i for i in range(1, len(verts) - 1) if type_of[verts[i]] == offender
        ]
        x, y = hits[0], hits[-1]
        z = y + 1
        assert x < y and graph.has_edge(verts[x], verts[z])
        verts = verts[: x + 1] + verts[z:]


def build_paths_ilp(
    instance: PathsInstance, partition: TypePartition, type_graph: TypeGraph
) -> tuple[IlpProblem, tuple[PathCategory, ...]]:
    """Category count variables plus the demand and capacity constraints.

    One category per minimal chain of each demanded endpoint-type pair.
    Demands: per normalized endpoint-type pair, category counts sum to the
    number of terminal pairs with those endpoint types.  Capacities: per
    type, the categories routed through it sum to at most the type size
    minus its terminal vertices (terminals are fixed, named vertices; they
    are excluded from every pool rather than double-counted).
    """
    k = partition.num_types
    type_of = partition.type_of
    demand: Counter = Counter()
    for s, t in instance.pairs:
        a, b = sorted((type_of[s], type_of[t]))
        demand[(a, b)] += 1
    terminals_in: Counter = Counter(type_of[v] for v in instance.terminals())

    categories: list[PathCategory] = []
    through: list[list[int]] = [[] for _ in range(k)]  # type -> its categories
    constraints = []
    for a, b in sorted(demand):
        first = len(categories)
        for chain in minimal_chains(type_graph, a, b):
            for t in chain:
                through[t].append(len(categories))
            categories.append(PathCategory(a, b, chain))
        row = tuple((i, 1) for i in range(first, len(categories)))
        constraints.append(LinearConstraint(row, "=", demand[(a, b)]))
    for t in range(k):
        if through[t]:
            capacity = type_graph.size[t] - terminals_in[t]
            row = tuple((i, 1) for i in through[t])
            constraints.append(LinearConstraint(row, "<=", capacity))
    num_vars = len(categories)
    upper = tuple(demand[(cat.start_type, cat.end_type)] for cat in categories)
    problem = IlpProblem(num_vars, (0,) * num_vars, upper, tuple(constraints))
    return problem, tuple(categories)


def reconstruct_paths(
    instance: PathsInstance,
    partition: TypePartition,
    categories: tuple[PathCategory, ...],
    counts: Sequence[int],
) -> PathsWitness:
    """Turn feasible category counts into concrete disjoint paths.

    Pairs are processed in input order, categories are handed out in
    compile order, and each chain type contributes its lowest unused
    non-terminal vertex, so reconstruction is deterministic.  A chain runs
    from the lower endpoint type, so it is walked backwards for a pair
    whose source has the higher type.  The capacity constraints guarantee
    the pools never run dry.
    """
    type_of = partition.type_of
    terminal_set = set(instance.terminals())
    pools = {
        t: iter(v for v in partition.classes[t] if v not in terminal_set)
        for t in range(partition.num_types)
    }

    queues: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for cat, count in zip(categories, counts):
        key = (cat.start_type, cat.end_type)
        queues.setdefault(key, []).extend([cat.chain] * count)

    paths: list[tuple[int, ...]] = []
    cursor: Counter = Counter()
    for s, t in instance.pairs:
        key = tuple(sorted((type_of[s], type_of[t])))
        chains = queues.get(key, [])
        assert cursor[key] < len(chains), "category counts do not cover the pairs"
        chain = chains[cursor[key]]
        cursor[key] += 1
        if type_of[s] > type_of[t]:
            chain = chain[::-1]
        verts = [s]
        for ct in chain:
            v = next(pools[ct], None)
            assert v is not None, "vertex pool exhausted despite capacity limits"
            verts.append(v)
        verts.append(t)
        for u, v in zip(verts, verts[1:]):
            assert instance.graph.has_edge(u, v), "reconstructed a non-path"
        paths.append(tuple(verts))
    return PathsWitness(tuple(paths))


def solve_paths(instance: PathsInstance) -> SolveReport:
    """Decide the disjoint-paths instance; reconstruct a witness on yes."""
    start = time.perf_counter()
    partition = compute_type_partition(instance.graph)
    type_graph = build_type_graph(instance.graph, partition)
    problem, categories = build_paths_ilp(instance, partition, type_graph)
    solution = solve_feasibility(problem)
    witness: PathsWitness | None = None
    if solution is not None:
        witness = reconstruct_paths(instance, partition, categories, solution.values)
        validate_paths_witness(instance, witness.paths, type_of=partition.type_of)
    elapsed = (time.perf_counter() - start) * 1000.0
    return SolveReport(
        answer=witness is not None,
        nd=partition.num_types,
        elapsed_ms=elapsed,
        witness=witness,
        ilp_vars=problem.num_vars,
    )
