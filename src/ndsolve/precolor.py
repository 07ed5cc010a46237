"""Exact precoloring extension via color categories and integer feasibility.

Independent-set types are reduced first: once any of their vertices is
precolored that color works for all of them (equal neighborhoods, no
internal edges), and a fully uncolored independent type may just as well
be a single vertex.  After the reduction every independent type is either
fully precolored ("frozen") or one uncolored vertex; all other types stay
"active".

Colors are then grouped by where the input pins them: a category collects
the colors precolored in the same set of types.  The colors nobody pinned
are interchangeable and a coloring uses at most n of them, so their
category lists at most n colors, never the whole budget.  Each color of a
category is routed to a subcategory, a set of types that contains the
category's types, adds no frozen type (its vertices are all taken) and
holds no adjacent type pair (a color shared across a fully-joined pair
would sit on an edge).  Only the maximal such sets are needed, and one
count variable per subcategory gives a small integer system:

* per category, its subcategory counts sum to the category's color count;
* per active type, the subcategories containing it sum to at least the
  type size.

The covering rows make maximal sets enough.  A coloring that extends the
input puts each color on an independent set of types; enlarging that set
to a maximal one only adds types to the rows, and each vertex of an active
type has its own color (cliques are rainbow, reduced independent types
have one vertex), so every row still holds.  Conversely, a feasible count
table routes at least size(t) colors to each active type t; its pinned
colors already sit on their vertices, the lowest other routed colors fill
the open vertices and any surplus color is simply left off t.  Two uses of
one color always lie in one independent set of types, so the result is
proper.  Frozen types are left out of the per-type rows because one color
may legally cover several of their vertices; their adjacency constraints
still apply through the categories.

The witness follows from the first feasible count table of the search,
with variables ordered by category and then in the order
:func:`maximal_independent_supersets` yields the sets.
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
from .graphs import Graph
from .ilp import IlpProblem, LinearConstraint, solve_feasibility
from .instances import PrecolorInstance, SolveReport, validate_coloring_witness


@dataclass(frozen=True)
class ReducedInstance:
    """Instance after the independent-type reduction.

    ``effective`` lists, per type, the vertices that still matter (for a
    collapsed type just its representative); ``collapsed`` maps each
    representative to the original vertex set it stands for.  Expanding the
    collapsed vertices and keeping the extended precolors reproduces a
    coloring-equivalent original instance.
    """

    base: PrecolorInstance
    partition: TypePartition
    precolor: dict[int, int]
    collapsed: dict[int, tuple[int, ...]]
    effective: tuple[tuple[int, ...], ...]
    active_types: tuple[int, ...]
    frozen_types: frozenset[int]

    def effective_size(self, t: int) -> int:
        return len(self.effective[t])

    def materialize(self) -> tuple[PrecolorInstance, tuple[int, ...]]:
        """Standalone instance on the kept vertices, plus the kept-id map."""
        keep = sorted(v for members in self.effective for v in members)
        new_id = {v: i for i, v in enumerate(keep)}
        graph = self.base.graph
        edges = [
            (new_id[u], new_id[v])
            for u, v in graph.edges()
            if u in new_id and v in new_id
        ]
        precolor = {new_id[v]: c for v, c in self.precolor.items() if v in new_id}
        reduced_graph = Graph.from_edges(len(keep), edges)
        return (
            PrecolorInstance(reduced_graph, precolor, self.base.num_colors),
            tuple(keep),
        )


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
) -> ReducedInstance:
    """Freeze or collapse every independent type; cliques stay untouched."""
    precolor = dict(instance.precolor)
    collapsed: dict[int, tuple[int, ...]] = {}
    effective: list[tuple[int, ...]] = []
    frozen: set[int] = set()

    for t, members in enumerate(partition.classes):
        if partition.clique_flag[t]:
            effective.append(members)
            continue
        uncolored = [v for v in members if v not in precolor]
        if not uncolored:
            frozen.add(t)
            effective.append(members)
            continue
        pinned = sorted(precolor[v] for v in members if v in precolor)
        if pinned:
            # some color is already pinned here: it works for the whole type
            for v in uncolored:
                precolor[v] = pinned[0]
            frozen.add(t)
            effective.append(members)
        else:
            rep = members[0]
            if len(members) > 1:
                collapsed[rep] = members
            effective.append((rep,))

    active = tuple(t for t in range(partition.num_types) if t not in frozen)
    return ReducedInstance(
        base=instance,
        partition=partition,
        precolor=precolor,
        collapsed=collapsed,
        effective=tuple(effective),
        active_types=active,
        frozen_types=frozenset(frozen),
    )


def compute_color_categories(reduced: ReducedInstance) -> tuple[ColorCategory, ...]:
    """Group the pinned colors by the set of types they are precolored in.

    The category with the empty type set holds the unpinned colors among
    1..min(r, n + #pinned), at least min(r - #pinned, n) of them, and is
    always present, possibly with zero colors.
    """
    type_of = reduced.partition.type_of
    pinned_types: dict[int, set[int]] = {}
    seen_in_type: set[tuple[int, int]] = set()
    # the reduction only repeats (type, color) pairs the input already has
    for v, c in reduced.base.precolor.items():
        t = type_of[v]
        if reduced.partition.clique_flag[t] and (t, c) in seen_in_type:
            raise ValueError(f"color {c} precolored twice inside clique type {t}")
        seen_in_type.add((t, c))
        pinned_types.setdefault(c, set()).add(t)

    last = min(reduced.base.num_colors, reduced.base.graph.n + len(pinned_types))
    groups = {frozenset(): [c for c in range(1, last + 1) if c not in pinned_types]}
    for c, types in pinned_types.items():
        groups.setdefault(frozenset(types), []).append(c)
    return tuple(
        ColorCategory(key, tuple(sorted(groups[key])))
        for key in sorted(groups, key=lambda s: sum(1 << t for t in s))
    )


def maximal_independent_supersets(
    type_graph: TypeGraph,
    base: frozenset[int],
    addable: Sequence[int],
) -> Iterator[frozenset[int]]:
    """Each maximal superset of ``base`` by pairwise non-adjacent types
    from ``addable``, once.

    ``addable`` types must already be non-adjacent to ``base``.  A type
    compatible with every other addable type is in every maximal set, so it
    joins the base first.  The sets are the maximal cliques of the
    complement of the type graph on the other addable types, listed by
    Bron-Kerbosch with a pivot on bitmasks over an explicit stack.  A frame
    holds the ``chosen`` types, the ``candidates`` compatible with all of
    them, the ``excluded`` compatible types whose branch is done, and the
    ``todo`` candidates still to branch on, lowest id first: those
    incompatible with the pivot, a type that leaves the fewest.  A set is
    maximal when no candidate or excluded type remains.
    """
    pool = 0
    for t in addable:
        pool |= 1 << t
    compat = [0] * type_graph.num_types
    universal = 0
    for t in addable:
        adjacent = sum(1 << u for u in type_graph.adj[t])
        compat[t] = pool & ~adjacent & ~(1 << t)
        if compat[t] | 1 << t == pool:
            universal |= 1 << t
    pool ^= universal
    base = base.union(mask_members(universal))

    def frame(chosen: int, candidates: int, excluded: int) -> list[int]:
        pivot = max(
            mask_members(candidates | excluded),
            key=lambda u: (candidates & compat[u]).bit_count(),
        )
        return [chosen, candidates, excluded, candidates & ~compat[pivot]]

    if not pool:
        yield base
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
            yield base.union(mask_members(chosen | low))


def build_precolor_ilp(
    reduced: ReducedInstance,
    categories: tuple[ColorCategory, ...],
    type_graph: TypeGraph,
) -> tuple[IlpProblem, tuple[ColorSubcategory, ...]]:
    """Count variables for the maximal subcategories, the category
    equations and the covering rows of the active types.

    Independence checks use one adjacency mask per type, so a type set
    costs O(|set|) mask operations."""
    k = type_graph.num_types
    adjacent = [sum(1 << u for u in row) for row in type_graph.adj]
    frozen = sum(1 << t for t in reduced.frozen_types)
    subcats: list[ColorSubcategory] = []
    covering: list[list[int]] = [[] for _ in range(k)]
    constraints = []
    for ci, category in enumerate(categories):
        if category.color_count == 0:
            continue
        base = category.type_set
        base_mask = sum(1 << t for t in base)
        blocked = base_mask | frozen
        for a in base:
            if adjacent[a] & base_mask:
                raise ValueError("category types are adjacent; input is corrupt")
            blocked |= adjacent[a]
        addable = mask_members(((1 << k) - 1) & ~blocked)
        first = len(subcats)
        for type_set in maximal_independent_supersets(type_graph, base, addable):
            set_mask = sum(1 << a for a in type_set)
            for a in type_set:
                covering[a].append(len(subcats))
                assert not adjacent[a] & set_mask
            subcats.append(ColorSubcategory(ci, type_set))
        row = tuple((i, 1) for i in range(first, len(subcats)))
        constraints.append(LinearConstraint(row, "=", category.color_count))
    for t in reduced.active_types:
        row = tuple((i, -1) for i in covering[t])
        constraints.append(LinearConstraint(row, "<=", -reduced.effective_size(t)))
    num_vars = len(subcats)
    upper = tuple(categories[sc.category_index].color_count for sc in subcats)
    problem = IlpProblem(num_vars, (0,) * num_vars, upper, tuple(constraints))
    return problem, tuple(subcats)


def reconstruct_coloring(
    reduced: ReducedInstance,
    categories: tuple[ColorCategory, ...],
    subcats: tuple[ColorSubcategory, ...],
    counts: Sequence[int],
) -> ColoringWitness:
    """Turn feasible subcategory counts into a full proper coloring.

    Subcategories are walked once in variable order, and each takes the
    next ``count`` colors of its category.  On each active type, the colors
    routed there and not already pinned to a precolored vertex are fresh;
    the lowest of them land on the uncolored vertices in id order and the
    surplus stays off the type.  Collapsed vertices copy their
    representative.  The covering rows guarantee enough fresh colors.
    """
    routed: dict[int, list[int]] = {t: [] for t in reduced.active_types}
    taken = [0] * len(categories)
    for sc, count in zip(subcats, counts):
        ci = sc.category_index
        colors = categories[ci].colors[taken[ci] : taken[ci] + count]
        taken[ci] += count
        for t in sc.type_set:
            if t in routed:
                routed[t].extend(colors)
    assert taken == [c.color_count for c in categories], "counts miss a category"

    color_of = dict(reduced.precolor)
    for t in reduced.active_types:
        members = reduced.effective[t]
        pinned = {color_of[v] for v in members if v in color_of}
        fresh = [c for c in sorted(routed[t]) if c not in pinned]
        open_slots = [v for v in members if v not in color_of]
        assert len(fresh) >= len(open_slots), "type row is not covered"
        for v, c in zip(open_slots, fresh):
            color_of[v] = c
    for rep, members in reduced.collapsed.items():
        for v in members:
            color_of[v] = color_of[rep]
    n = reduced.base.graph.n
    assert len(color_of) == n
    return ColoringWitness(tuple(color_of[v] for v in range(n)))


def solve_precolor(instance: PrecolorInstance) -> SolveReport:
    """Decide whether the precoloring extends; report a full coloring on yes."""
    start = time.perf_counter()
    partition = compute_type_partition(instance.graph)
    type_graph = build_type_graph(instance.graph, partition)
    reduced = reduce_independent_types(instance, partition)
    categories = compute_color_categories(reduced)
    problem, subcats = build_precolor_ilp(reduced, categories, type_graph)
    solution = solve_feasibility(problem)
    witness: ColoringWitness | None = None
    if solution is not None:
        witness = reconstruct_coloring(reduced, categories, subcats, solution.values)
        validate_coloring_witness(instance, witness.colors)
    elapsed = (time.perf_counter() - start) * 1000.0
    return SolveReport(
        answer=witness is not None,
        nd=partition.num_types,
        elapsed_ms=elapsed,
        witness=witness,
        ilp_vars=problem.num_vars,
    )
