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
* per active type that does not peel (below), the subcategories
  containing it sum to at least its need: the type size for a clique, 1
  for an independent type.

The covering rows make maximal sets enough.  A coloring that extends the
input puts each color on an independent set of types; enlarging that set
to a maximal one only adds types to the rows, and an active type carries
at least its need in distinct colors, so every row still holds.
Conversely, a feasible count table routes at least need(t) colors to each
active type t with a row; its pinned colors already sit on their
vertices, the lowest other routed colors fill the open vertices and any
surplus color is simply left off t.  Two uses of one color always lie in
one independent set of types, so the result is proper.  Frozen types are
left out of the per-type rows; their adjacency constraints still apply
through the categories.  A frozen type needs no fill of its own: no
subcategory adds one, so no neighbour is routed a color pinned in it, and
its open vertices take its lowest pinned color.

Before any of this is built, :func:`peel_types` takes out the active
types that the greedy bound along a degeneracy order (Szekeres & Wilf,
1968) colors whatever the rest of the coloring is.  A class ends up with
at most ub(u) colors: its size for a clique, 1 for an unpinned
independent class, its count of pinned colors for a frozen one.  An
active type t *peels* when r - sum(w(u) for u in N_H(t)) >= need(t),
where w(u) is ub(u) while u is unpeeled and u's count of pinned colors
once u has peeled; this repeats to a fixpoint, lowest type first in each
pass.  Peeled types are colored last, in reverse peel order.  So when t's
turn comes, every neighbour that peeled after t, or never peeled, holds
its final colors, at most ub(u) of them.  A neighbour that peeled before
t is still uncolored apart from its pins, and those pinned colors are
what w counts for it: leaving them out would call some no-instances
colorable.  Hence t's neighbours hold at most sum(w) colors, and at least
need(t) colors within the budget stay free for t's open vertices.

A peeled type gets no covering row.  Dropping rows only loosens the
system, so a no stays a no, and by the argument above any feasible count
table of the smaller system extends to a full coloring.  When every
active type peels, the category equations alone remain, and they always
hold: each category with colors has a subcategory, if only its own type
set.  :func:`compile_precolor` then computes no categories and returns
the empty system, whose empty assignment answers yes.

A pinned color never sits on two adjacent vertices, so a category's types
are pairwise non-adjacent and no clique type repeats a pinned color.  The
witness follows from the first feasible count table of the search, with
variables ordered by category and then in the order :func:`maximal_cliques`
yields the sets.  :func:`reconstruct_coloring` hands out colors in that
same order: each frozen type takes its lowest pinned color, each unpeeled
active type its routed colors, and then, in reverse peel order, each open
vertex of a peeled type the lowest color not on a neighbouring type and
not pinned in its class (distinct ones across a clique).
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from itertools import count, filterfalse, islice
from typing import Iterable, Iterator, NamedTuple, Sequence

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


def pinned_colors(
    instance: PrecolorInstance, type_of: Sequence[int], k: int
) -> dict[int, set[int]]:
    """Each pinned type's set of pinned colors, from one pass over the pins.

    The pass collects each pinned (color, type) pair once as the integer
    ``c * k + t``: one set comprehension, about twice as fast as filling a
    dict of sets pin by pin."""
    pinned: dict[int, set[int]] = {}
    for key in {c * k + type_of[v] for v, c in instance.precolor.items()}:
        c, t = divmod(key, k)
        pinned.setdefault(t, set()).add(c)
    return pinned


def peel_types(
    type_graph: TypeGraph,
    frozen: frozenset[int],
    pinned: dict[int, set[int]],
    num_colors: int,
) -> tuple[int, ...]:
    """The active types the greedy bound colors, in the order they peel.

    Pass by pass, lowest type first, an active type t peels when
    ``num_colors - need(t)`` is at least its load, the summed weight of
    its neighbours in H; a pass that peels nothing ends the fixpoint.  A
    frozen or peeled neighbour weighs its count of ``pinned`` colors, an
    unpeeled active one its need.  Loads only fall, so a type is ready
    from the moment its load is low enough: it waits in the current pass's
    heap when its id lies past the type that made it ready, otherwise in
    the next pass's, and each type is pushed once.  O((k + |E(H)|) log k);
    the edges of the graph are never read.
    """
    k = type_graph.num_types
    fixed = [0] * k  # each type's count of pinned colors
    for t, colors in pinned.items():
        fixed[t] = len(colors)
    need = [s if q else 1 for s, q in zip(type_graph.size, type_graph.clique_flag)]
    weight = [fixed[t] if t in frozen else need[t] for t in range(k)]
    # slack[t] = num_colors - need(t) - load(t): t peels once it is not negative
    slack = [
        num_colors - need[t] - sum(map(weight.__getitem__, row))
        for t, row in enumerate(type_graph.adj)
    ]
    this_pass = [t for t in range(k) if slack[t] >= 0 and t not in frozen]
    next_pass: list[int] = []
    order = []
    while this_pass or next_pass:
        if not this_pass:
            this_pass, next_pass = next_pass, this_pass
        t = heapq.heappop(this_pass)
        order.append(t)
        gain = need[t] - fixed[t]
        if not gain:
            continue
        for u in type_graph.adj[t]:
            if slack[u] < 0 <= slack[u] + gain and u not in frozen:
                heapq.heappush(this_pass if u > t else next_pass, u)
            slack[u] += gain
    return tuple(order)


def compute_color_categories(
    instance: PrecolorInstance, partition: TypePartition
) -> tuple[ColorCategory, ...]:
    """Group the pinned colors by the set of types they are precolored in.

    The category with the empty type set holds the unpinned colors among
    1..min(r, n + #pinned), at least min(r - #pinned, n) of them, and is
    always present, possibly with zero colors.
    """
    pinned_types: dict[int, list[int]] = {}
    for t, colors in pinned_colors(instance, partition.type_of, partition.num_types).items():
        for c in colors:
            pinned_types.setdefault(c, []).append(t)

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
    peeled: frozenset[int] = frozenset(),
) -> tuple[IlpProblem, tuple[ColorSubcategory, ...]]:
    """Count variables for the maximal subcategories, the category
    equations and the covering rows of the active types not ``peeled``.

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
        if t not in frozen and t not in peeled:
            need = type_graph.size[t] if type_graph.clique_flag[t] else 1
            row = tuple((i, -1) for i in covering[t])
            constraints.append(LinearConstraint(row, "<=", -need))
    num_vars = len(subcats)
    upper = tuple(categories[sc.category_index].color_count for sc in subcats)
    problem = IlpProblem(num_vars, (0,) * num_vars, upper, tuple(constraints))
    return problem, tuple(subcats)


class CompiledPrecolor(NamedTuple):
    """What :func:`compile_precolor` derives from an instance; a tuple that
    ends with the integer system the solver searches."""

    partition: TypePartition
    type_graph: TypeGraph
    pinned: dict[int, set[int]]  # type -> its pinned colors
    peeled: tuple[int, ...]  # in peel order
    categories: tuple[ColorCategory, ...]
    subcats: tuple[ColorSubcategory, ...]
    problem: IlpProblem


def reconstruct_coloring(
    instance: PrecolorInstance, compiled: CompiledPrecolor, counts: Sequence[int]
) -> ColoringWitness:
    """Turn feasible subcategory counts into a full proper coloring.

    Subcategories are walked once in variable order, and each takes the
    next ``count`` colors of its category and routes them to its types.
    One color list, seeded from the precoloring, is then filled class by
    class, each class's open vertices from an ascending run of colors: an
    independent class's share the run's first color, a clique's take one
    each in id order.  A frozen class's run is its pinned colors.  An
    unpeeled active class's run is its routed colors not pinned inside it;
    the surplus stays off the type, and the covering rows guarantee enough
    colors.  The peeled classes come last, in reverse peel order, and their
    run is every color not on a neighbouring class and not pinned inside;
    the peel rule guarantees enough of them within the budget.
    ``palette[t]`` holds the colors on class t so far and grows as the
    class is filled, so each class's colors are collected once.
    """
    partition, categories = compiled.partition, compiled.categories
    k = partition.num_types
    routed: list[list[int]] = [[] for _ in range(k)]
    taken = [0] * len(categories)
    for sc, amount in zip(compiled.subcats, counts):
        ci = sc.category_index
        colors = categories[ci].colors[taken[ci] : taken[ci] + amount]
        taken[ci] += amount
        for t in sc.type_set:
            routed[t].extend(colors)
    assert taken == [c.color_count for c in categories], "counts miss a category"

    palette: list[set[int]] = [set() for _ in range(k)]
    for t, colors in compiled.pinned.items():
        palette[t] = set(colors)
    color_of = [0] * instance.graph.n
    for v, c in instance.precolor.items():
        color_of[v] = c

    def fill(t: int, run: Iterable[int]) -> None:
        open_slots = [v for v in partition.classes[t] if not color_of[v]]
        if not open_slots:
            return
        wanted = len(open_slots) if partition.clique_flag[t] else 1
        colors = list(islice(run, wanted))
        assert len(colors) == wanted, "type row is not covered"
        palette[t].update(colors)
        for v, c in zip(open_slots, colors * (len(open_slots) // wanted)):
            color_of[v] = c

    waiting = frozenset(compiled.peeled)
    for t in range(k):
        if t in waiting:
            continue
        if palette[t] and not partition.clique_flag[t]:
            fill(t, sorted(palette[t]))
        else:
            fill(t, filterfalse(palette[t].__contains__, sorted(routed[t])))
    adj = compiled.type_graph.adj
    for t in reversed(compiled.peeled):
        near = palette[t].union(*map(palette.__getitem__, adj[t]))
        fill(t, filterfalse(near.__contains__, count(1)))
    return ColoringWitness(tuple(color_of))


# every active type peeled: the category equations alone always hold
_EMPTY_SYSTEM = IlpProblem(0, (), (), ())


def compile_precolor(instance: PrecolorInstance) -> CompiledPrecolor:
    """The instance's type partition, type graph, pinned colors, peel order,
    color categories, subcategories and integer system; the solver and the
    CLI's ``--dump-ilp`` both compile through here.  When every active type
    peels, it computes no categories and returns the empty system."""
    partition = compute_type_partition(instance.graph)
    type_graph = build_type_graph(instance.graph, partition)
    frozen = reduce_independent_types(instance, partition)
    pinned = pinned_colors(instance, partition.type_of, partition.num_types)
    peeled = peel_types(type_graph, frozen, pinned, instance.num_colors)
    if len(frozen) + len(peeled) == partition.num_types:
        return CompiledPrecolor(partition, type_graph, pinned, peeled, (), (), _EMPTY_SYSTEM)
    categories = compute_color_categories(instance, partition)
    problem, subcats = build_precolor_ilp(
        frozen, categories, type_graph, frozenset(peeled)
    )
    return CompiledPrecolor(
        partition, type_graph, pinned, peeled, categories, subcats, problem
    )


def solve_precolor(instance: PrecolorInstance) -> SolveReport:
    """Decide whether the precoloring extends; report a full coloring on yes."""
    start = time.perf_counter()
    compiled = compile_precolor(instance)
    solution = solve_feasibility(compiled.problem)
    witness: ColoringWitness | None = None
    if solution is not None:
        witness = reconstruct_coloring(instance, compiled, solution.values)
        validate_coloring_witness(instance, witness.colors)
    return SolveReport.finish(
        start, compiled.partition.num_types, witness, compiled.problem.num_vars
    )
