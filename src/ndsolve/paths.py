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
from itertools import chain, groupby, repeat
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
    first, each chain once.  ``path`` is ``s_type`` and the chain so far;
    the frame of ``path[i]`` holds its neighbours still to try next and a
    ``blocked`` mask of ``path[:i + 1]`` and the neighbours of ``path[:i]``
    (the members, and the neighbours of every member but the last).  A
    neighbour of ``path[i]`` outside ``blocked`` links no earlier member,
    so each candidate costs O(1) mask operations, low bit first.
    ``t_type`` never becomes a candidate: a candidate neighbours the last
    member, and a member that neighbours ``t_type`` ends its chain at once.
    """
    if type_graph.linked(s_type, t_type):
        yield ()
        return
    masks = type_graph.masks
    ends = masks[t_type]
    path = [s_type]
    stack = [[masks[s_type], 1 << s_type]]  # stack[i]: [todo, blocked] of path[i]
    while stack:
        frame = stack[-1]
        todo = frame[0]
        if not todo:
            stack.pop()
            path.pop()
            continue
        low = todo & -todo
        frame[0] = todo ^ low
        x = low.bit_length() - 1
        if low & ends:
            yield (*path[1:], x)
        else:
            blocked = frame[1] | masks[path[-1]]
            path.append(x)
            stack.append([masks[x] & ~blocked, blocked])


def route_is_valid(
    type_graph: TypeGraph, route: frozenset[int] | set[int], s_type: int, t_type: int
) -> bool:
    """Whether a path with these endpoint types can traverse exactly ``route``.

    The solver does not call this; it stays only as a reference for the
    tests and as a hook of the benchmark's tracer."""
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

    In one pass from left to right, each kept internal vertex x jumps
    straight to the successor z of the last internal vertex y of its type:
    z neighbors y, and same-type x and y have equal neighborhoods apart
    from each other, so z neighbors x too.  Endpoints, vertex subset and
    validity are preserved, and since a kept type never recurs after its
    jump, the result is what repeated shortcuts of the first repeated type
    would leave.
    """
    verts = list(path)
    if len(set(verts)) != len(verts):
        raise ValueError("input path repeats a vertex")
    for u, v in zip(verts, verts[1:]):
        if not graph.has_edge(u, v):
            raise ValueError(f"input path uses the missing edge ({u}, {v})")
    type_of = partition.type_of
    last = {type_of[verts[i]]: i for i in range(1, len(verts) - 1)}
    kept = verts[:1]
    i = 1
    while i < len(verts) - 1:
        y = last[type_of[verts[i]]]
        assert y == i or graph.has_edge(verts[i], verts[y + 1])
        kept.append(verts[i])
        i = y + 1
    return tuple(kept + verts[i:])


def build_paths_ilp(
    instance: PathsInstance, partition: TypePartition, type_graph: TypeGraph
) -> tuple[IlpProblem, tuple[PathCategory, ...]]:
    """Category count variables plus the demand and capacity constraints.

    One category per minimal chain of each demanded endpoint-type pair, in
    sorted pair order.  Demands: per normalized endpoint-type pair, category
    counts sum to the number of terminal pairs with those endpoint types,
    which is also each count's upper bound.  Capacities: per type, the
    categories routed through it sum to at most its pool, the type size
    minus its terminal vertices (terminals are fixed, named vertices; they
    are excluded from every pool rather than double-counted).  A chain uses
    a type at most once, so the demand rows already hold the categories
    through a type to the number of pairs.  Which types can run out (pool
    below the pair count) is decided before the chain walk, which lists the
    categories through those types alone; each that some chain passes gets
    its row, in type order.
    """
    type_of = partition.type_of
    demand: Counter = Counter()
    for s, t in instance.pairs:
        a, b = sorted((type_of[s], type_of[t]))
        demand[(a, b)] += 1
    terminals_in: Counter = Counter(type_of[v] for v in instance.terminals())
    pool = [size - terminals_in[t] for t, size in enumerate(type_graph.size)]
    scarce = {t: [] for t in range(partition.num_types) if pool[t] < len(instance.pairs)}

    categories: list[PathCategory] = []
    constraints = []
    for (a, b), count in sorted(demand.items()):
        first = len(categories)
        for route in minimal_chains(type_graph, a, b):
            for t in route:
                if t in scarce:
                    scarce[t].append(len(categories))
            categories.append(PathCategory(a, b, route))
        row = tuple((i, 1) for i in range(first, len(categories)))
        constraints.append(LinearConstraint(row, "=", count))
    upper = tuple(demand_row.rhs for demand_row in constraints for _ in demand_row.terms)
    for t, through in scarce.items():
        if through:
            row = tuple((i, 1) for i in through)
            constraints.append(LinearConstraint(row, "<=", pool[t]))
    num_vars = len(categories)
    problem = IlpProblem(num_vars, (0,) * num_vars, upper, tuple(constraints))
    return problem, tuple(categories)


def reconstruct_paths(
    instance: PathsInstance,
    partition: TypePartition,
    categories: tuple[PathCategory, ...],
    counts: Sequence[int],
) -> PathsWitness:
    """Turn feasible category counts into concrete disjoint paths.

    Pairs are processed in input order, and each chain type contributes its
    lowest unused non-terminal vertex, so reconstruction is deterministic.
    ``categories`` come grouped by endpoint types, as
    :func:`build_paths_ilp` lists them; each endpoint-type pair gets one
    iterator that hands out its categories' chains in that order, each as
    many times as its count, and a terminal pair draws the next chain of
    its endpoint types.  A chain runs from the lower endpoint type, so it
    is walked backwards for a pair whose source has the higher type.  The
    capacity constraints guarantee the pools never run dry.
    """
    type_of = partition.type_of
    terminal_set = set(instance.terminals())
    pools = {
        t: iter(v for v in partition.classes[t] if v not in terminal_set)
        for t in range(partition.num_types)
    }
    draws = {
        ends: chain.from_iterable([repeat(cat.chain, n) for cat, n in group if n])
        for ends, group in groupby(
            zip(categories, counts), lambda item: (item[0].start_type, item[0].end_type)
        )
    }

    paths: list[tuple[int, ...]] = []
    for s, t in instance.pairs:
        route = next(draws[tuple(sorted((type_of[s], type_of[t])))], None)
        assert route is not None, "category counts do not cover the pairs"
        if type_of[s] > type_of[t]:
            route = route[::-1]
        verts = [s]
        for ct in route:
            v = next(pools[ct], None)
            assert v is not None, "vertex pool exhausted despite capacity limits"
            verts.append(v)
        verts.append(t)
        for u, v in zip(verts, verts[1:]):
            assert instance.graph.has_edge(u, v), "reconstructed a non-path"
        paths.append(tuple(verts))
    return PathsWitness(tuple(paths))


def compile_paths(
    instance: PathsInstance,
) -> tuple[TypePartition, tuple[PathCategory, ...], IlpProblem]:
    """The instance's type partition, path categories and integer system;
    the solver and the CLI's ``--dump-ilp`` both compile through here."""
    partition = compute_type_partition(instance.graph)
    type_graph = build_type_graph(instance.graph, partition)
    problem, categories = build_paths_ilp(instance, partition, type_graph)
    return partition, categories, problem


def solve_paths(instance: PathsInstance) -> SolveReport:
    """Decide the disjoint-paths instance; reconstruct a witness on yes."""
    start = time.perf_counter()
    partition, categories, problem = compile_paths(instance)
    solution = solve_feasibility(problem)
    witness: PathsWitness | None = None
    if solution is not None:
        witness = reconstruct_paths(instance, partition, categories, solution.values)
        validate_paths_witness(instance, witness.paths, type_of=partition.type_of)
    return SolveReport.finish(start, partition.num_types, witness, problem.num_vars)
