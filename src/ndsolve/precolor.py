"""Exact precoloring extension via color categories and integer feasibility.

Independent types are reduced as types, never vertex by vertex.  The
vertices of an independent type share their neighbors and have no edge
among them, so a color pinned on one of them fits all of them: such a type
is *frozen*, its open vertices take its lowest pinned color and no other
color has to reach it.  An independent type with nothing pinned needs a
single color, which all its vertices share.  Clique types are untouched.
:func:`reduce_independent_types` reads the frozen types off the pinned
vertices alone; every other type is "active".

Colors are then grouped by where the input pins them: a category collects
the colors precolored in the same set of types.  The colors nobody pinned
are interchangeable and a coloring uses at most n of them, so their
category lists at most n colors, never the whole budget.  Each color of a
category is routed to a subcategory, a set of types that contains the
category's types, adds no frozen type (it needs no further color) and
holds no adjacent type pair (a color shared across a fully-joined pair
would sit on an edge).  Only the maximal such sets are needed, and one
count variable per subcategory gives a small integer system:

* per category, its subcategory counts sum to the category's color count;
* per active type, the subcategories containing it sum to at least its
  need: the type size for a clique, 1 for an independent type.

The covering rows make maximal sets enough.  A coloring that extends the
input puts each color on an independent set of types; enlarging that set
to a maximal one only adds types to the rows, and an active type carries
at least its need in distinct colors, so every row still holds.
Conversely, a feasible count table routes at least need(t) colors to each
active type t; its pinned colors already sit on their vertices, the lowest
other routed colors fill the open vertices and any surplus color is simply
left off t.  Two uses of one color always lie in one independent set of
types, so the result is proper.  Frozen types are left out of the per-type
rows; their adjacency constraints still apply through the categories.
Frozen types need no fill of their own: no subcategory adds one, so a
frozen type is routed exactly the colors of the categories holding it,
which are its pinned colors, and its lowest routed color is pinned in it.

A pinned color never sits on two adjacent vertices, so a category's types
are pairwise non-adjacent and no clique type repeats a pinned color.  The
witness follows from the first feasible count table of the search, with
variables ordered by category and then in the order :func:`maximal_cliques`
yields the sets.
:func:`reconstruct_coloring` hands out colors in that same order.
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
from .ilp import IlpProblem, LinearConstraint, solve_feasibility
from .instances import PrecolorInstance, SolveReport, validate_coloring_witness


@dataclass(frozen=True)
class ColorCategory:
    """Colors precolored in exactly ``type_set``; fixed by the input."""

    type_set: frozenset[int]
    colors: tuple[int, ...]

    @property
    def color_count(self) -> int:
        return len(self.colors)


@dataclass(frozen=True)
class ColorSubcategory:
    """Maximal type set a category's colors may be routed to; a routed
    color occupies some of its types.  Its count variable is its position
    in the tuple :func:`build_precolor_ilp` returns."""

    category_index: int
    type_set: frozenset[int]


@dataclass(frozen=True)
class ColoringWitness:
    colors: tuple[int, ...]


def reduce_independent_types(
    instance: PrecolorInstance, partition: TypePartition
) -> frozenset[int]:
    """The frozen types: independent types with a pinned vertex.

    Reads only the pinned vertices, so it costs O(#pinned)."""
    type_of, clique_flag = partition.type_of, partition.clique_flag
    return frozenset(
        type_of[v] for v in instance.precolor if not clique_flag[type_of[v]]
    )


def compute_color_categories(
    instance: PrecolorInstance, partition: TypePartition
) -> tuple[ColorCategory, ...]:
    """Group the pinned colors by the set of types they are precolored in.

    The category with the empty type set holds the unpinned colors among
    1..min(r, n + #pinned), at least min(r - #pinned, n) of them, and is
    always present, possibly with zero colors.
    """
    type_of = partition.type_of
    pinned_types: dict[int, set[int]] = {}
    for v, c in instance.precolor.items():
        pinned_types.setdefault(c, set()).add(type_of[v])

    last = min(instance.num_colors, instance.graph.n + len(pinned_types))
    groups = {frozenset(): [c for c in range(1, last + 1) if c not in pinned_types]}
    for c, types in pinned_types.items():
        groups.setdefault(frozenset(types), []).append(c)
    return tuple(
        ColorCategory(key, tuple(sorted(groups[key])))
        for key in sorted(groups, key=lambda s: sum(1 << t for t in s))
    )


def maximal_cliques(compat: Sequence[int], pool: int) -> Iterator[int]:
    """Each maximal clique of the graph ``compat`` restricted to the types
    of ``pool``, once, as a mask.

    Bit u of ``compat[t]`` is set iff t and u are joined; no mask holds its
    own bit.  A type joined to every other pool type is in every maximal
    clique, so it is taken out first and added to each clique yielded.  The
    other cliques are listed by Bron-Kerbosch with a pivot on bitmasks over
    an explicit stack.  A frame holds the ``chosen`` types, the
    ``candidates`` joined to all of them, the ``excluded`` joined types
    whose branch is done, and the ``todo`` candidates still to branch on,
    lowest id first: those not joined to the pivot, a type that leaves the
    fewest.  A clique is maximal when no candidate or excluded type remains.
    """
    universal = 0
    for t in mask_members(pool):
        if pool & ~compat[t] == 1 << t:
            universal |= 1 << t
    pool ^= universal

    def frame(chosen: int, candidates: int, excluded: int) -> list[int]:
        pivot = max(
            mask_members(candidates | excluded),
            key=lambda u: (candidates & compat[u]).bit_count(),
        )
        return [chosen, candidates, excluded, candidates & ~compat[pivot]]

    if not pool:
        yield universal
        return
    stack = [frame(0, pool, 0)]
    while stack:
        top = stack[-1]
        chosen, candidates, excluded, todo = top
        if not todo:
            stack.pop()
            continue
        low = todo & -todo
        top[1], top[2], top[3] = candidates ^ low, excluded | low, todo ^ low
        t = low.bit_length() - 1
        candidates &= compat[t]
        excluded &= compat[t]
        if candidates:
            stack.append(frame(chosen | low, candidates, excluded))
        elif not excluded:
            yield universal | chosen | low


def build_precolor_ilp(
    frozen: frozenset[int],
    categories: tuple[ColorCategory, ...],
    type_graph: TypeGraph,
) -> tuple[IlpProblem, tuple[ColorSubcategory, ...]]:
    """Count variables for the maximal subcategories, the category
    equations and the covering rows of the active types.

    One compatibility table, read off the type graph's adjacency masks,
    serves every category: ``compat[t]`` holds the open (not frozen) types
    other than t that are not adjacent to t.  A category's pool is the
    intersection of its types' rows, and its subcategories are its types
    joined with each maximal clique of ``compat`` on that pool."""
    k = type_graph.num_types
    open_types = ((1 << k) - 1) & ~sum(1 << t for t in frozen)
    compat = [open_types & ~(mask | 1 << t) for t, mask in enumerate(type_graph.masks)]
    subcats: list[ColorSubcategory] = []
    covering: list[list[int]] = [[] for _ in range(k)]
    constraints = []
    for ci, category in enumerate(categories):
        if category.color_count == 0:
            continue
        pool = open_types
        for a in category.type_set:
            pool &= compat[a]
        first = len(subcats)
        for clique in maximal_cliques(compat, pool):
            type_set = category.type_set.union(mask_members(clique))
            for a in type_set:
                covering[a].append(len(subcats))
            subcats.append(ColorSubcategory(ci, type_set))
        row = tuple((i, 1) for i in range(first, len(subcats)))
        constraints.append(LinearConstraint(row, "=", category.color_count))
    for t in range(k):
        if t not in frozen:
            need = type_graph.size[t] if type_graph.clique_flag[t] else 1
            row = tuple((i, -1) for i in covering[t])
            constraints.append(LinearConstraint(row, "<=", -need))
    num_vars = len(subcats)
    upper = tuple(categories[sc.category_index].color_count for sc in subcats)
    problem = IlpProblem(num_vars, (0,) * num_vars, upper, tuple(constraints))
    return problem, tuple(subcats)


def reconstruct_coloring(
    instance: PrecolorInstance,
    partition: TypePartition,
    categories: tuple[ColorCategory, ...],
    subcats: tuple[ColorSubcategory, ...],
    counts: Sequence[int],
) -> ColoringWitness:
    """Turn feasible subcategory counts into a full proper coloring.

    Subcategories are walked once in variable order, and each takes the
    next ``count`` colors of its category and routes them to its types.
    One color list, seeded from the precoloring, is then filled class by
    class: an independent class's open vertices share its lowest routed
    color, and a clique's open vertices take, in id order, the lowest
    routed colors not pinned inside it.  The surplus stays off the type;
    the covering rows guarantee enough colors.  A frozen class is routed
    exactly its pinned colors, so its lowest routed color is pinned in it.
    """
    routed: list[list[int]] = [[] for _ in range(partition.num_types)]
    taken = [0] * len(categories)
    for sc, count in zip(subcats, counts):
        ci = sc.category_index
        colors = categories[ci].colors[taken[ci] : taken[ci] + count]
        taken[ci] += count
        for t in sc.type_set:
            routed[t].extend(colors)
    assert taken == [c.color_count for c in categories], "counts miss a category"

    color_of = [0] * instance.graph.n
    for v, c in instance.precolor.items():
        color_of[v] = c
    for t, members in enumerate(partition.classes):
        open_slots = [v for v in members if not color_of[v]]
        if not open_slots:
            continue
        if partition.clique_flag[t]:
            pinned = {color_of[v] for v in members if color_of[v]}
            fill = [c for c in sorted(routed[t]) if c not in pinned]
        else:
            fill = sorted(routed[t])[:1] * len(open_slots)
        assert len(fill) >= len(open_slots), "type row is not covered"
        for v, c in zip(open_slots, fill):
            color_of[v] = c
    return ColoringWitness(tuple(color_of))


def compile_precolor(instance: PrecolorInstance) -> tuple[
    TypePartition, tuple[ColorCategory, ...], tuple[ColorSubcategory, ...], IlpProblem
]:
    """The instance's type partition, color categories, subcategories and
    integer system; the solver and the CLI's ``--dump-ilp`` both compile
    through here."""
    partition = compute_type_partition(instance.graph)
    type_graph = build_type_graph(instance.graph, partition)
    frozen = reduce_independent_types(instance, partition)
    categories = compute_color_categories(instance, partition)
    problem, subcats = build_precolor_ilp(frozen, categories, type_graph)
    return partition, categories, subcats, problem


def solve_precolor(instance: PrecolorInstance) -> SolveReport:
    """Decide whether the precoloring extends; report a full coloring on yes."""
    start = time.perf_counter()
    partition, categories, subcats, problem = compile_precolor(instance)
    solution = solve_feasibility(problem)
    witness: ColoringWitness | None = None
    if solution is not None:
        witness = reconstruct_coloring(
            instance, partition, categories, subcats, solution.values
        )
        validate_coloring_witness(instance, witness.colors)
    return SolveReport.finish(start, partition.num_types, witness, problem.num_vars)
