"""Exact precoloring extension via color categories and integer feasibility.

Independent types are reduced as types, never vertex by vertex.  The
vertices of an independent type share their neighbors and have no edge
among them, so a color pinned on one of them fits all of them: such a type
is *frozen*, its open vertices take its lowest pinned color and no other
color has to reach it.  An independent type with nothing pinned needs a
single color, which all its vertices share.  Clique types are untouched.
:func:`pinned_colors` reads the pins once, and
:func:`reduce_independent_types` reads the frozen types off them; every
other type is "active".

Then :func:`peel_types` takes out the active types that the greedy bound
along a degeneracy order (Szekeres & Wilf, 1968) colors whatever the rest
of the coloring is.  A class ends up with at most ub(u) colors: its size
for a clique, 1 for an unpinned independent class, its count of pinned
colors for a frozen one.  An active type t *peels* when
r - sum(w(u) for u in N_H(t)) >= need(t), where w(u) is ub(u) while u is
unpeeled and u's count of pinned colors once u has peeled.  Peeling only
lowers the loads, so a type that can peel stays able to, and every order
of peeling reaches the same set of peeled types.  The frozen types, then
the peeled ones in peel order, are the *settled* types; the others are
*open*.  Settled types are colored last, in reverse order.  So when a
peeled type t's turn comes, every neighbour that is open or peeled after t
holds its final colors, at most ub(u) of them.  A neighbour settled before
t holds only its pins, and those pinned colors are what w counts for it:
leaving them out would call some no-instances colorable.  Hence t's
neighbours hold at most sum(w) colors, and at least need(t) colors within
the budget stay free for t's open vertices.  This holds for any order in
which each type meets the rule at its turn.

Colors are grouped by where the input pins them: a category collects the
colors precolored in the same set of types.  The colors nobody pinned are
interchangeable and a coloring uses at most n of them, so their category
lists at most n colors, never the whole budget.  Each color of a category
is routed to a subcategory, a set of types that contains the category's
types, adds only open types and holds no adjacent type pair (a color
shared across a fully-joined pair would sit on an edge).  Only the
maximal such sets are needed, and one count variable per subcategory
gives a small integer system:

* per category, its subcategory counts sum to the category's color count;
* per open type, the subcategories containing it sum to at least its need:
  the type size for a clique, 1 for an independent type.

The covering rows make maximal sets enough.  A coloring that extends the
input puts each color on an independent set of types; its open part
together with the category's types lies in a maximal subcategory, which
only adds types to the rows, and an open type carries at least its need
in distinct colors, so every row still holds.  Settled types read no row,
so leaving them out of the subcategories loses no feasible count table: a
yes stays a yes.  Conversely, a feasible count table routes at least
need(t) colors to each open type t; its pinned colors already sit on their
vertices, the lowest other routed colors fill the open vertices and any
surplus color is simply left off t.  Two uses of one routed color always
lie in one independent set of types, and no subcategory holds a neighbour
of a type the color is pinned in, so no open type takes a color pinned
next to it.  The settled types are then colored as above: a no stays a no.

When every type is settled, the category equations alone remain, and they
always hold: each category with colors has a subcategory, if only its own
type set.  :func:`compile_precolor` then computes no categories and
returns the empty system, whose empty assignment answers yes.

A pinned color never sits on two adjacent vertices, so a category's types
are pairwise non-adjacent and no clique type repeats a pinned color.  The
witness follows from the first feasible count table of the search, with
variables ordered by category and then in the order :func:`maximal_cliques`
yields the sets.  :func:`reconstruct_coloring` hands out colors in that
same order: each open type takes its routed colors, and then, in reverse
settled order, each peeled type's open vertices the lowest colors not on
a neighbouring type and not pinned in its class (distinct ones across a
clique), and each frozen type's open vertices its lowest pinned color.
"""

from __future__ import annotations

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


def pinned_colors(
    instance: PrecolorInstance, type_of: Sequence[int], k: int
) -> dict[int, set[int]]:
    """Each pinned type's set of pinned colors, from one pass over the pins.

    The pass collects each pinned (color, type) pair once as the integer
    ``c * k + t``: one set comprehension, about twice as fast as filling a
    dict of sets pin by pin.  :func:`compile_precolor` reads the pins once,
    here, and the frozen types, the peel and the categories read this dict."""
    pinned: dict[int, set[int]] = {}
    for key in {c * k + type_of[v] for v, c in instance.precolor.items()}:
        c, t = divmod(key, k)
        pinned.setdefault(t, set()).add(c)
    return pinned


def reduce_independent_types(
    pinned: dict[int, set[int]], partition: TypePartition
) -> frozenset[int]:
    """The frozen types: independent types with a pinned vertex.

    Reads only the ``pinned`` types, so it costs O(#pinned types)."""
    return frozenset(t for t in pinned if not partition.clique_flag[t])


def peel_types(
    type_graph: TypeGraph,
    frozen: frozenset[int],
    pinned: dict[int, set[int]],
    num_colors: int,
) -> tuple[int, ...]:
    """The active types the greedy bound colors, in an order they peel.

    An active type t peels when ``num_colors - need(t)`` is at least its
    load, the summed weight of its neighbours in H.  A frozen or peeled
    neighbour weighs its count of ``pinned`` colors, an unpeeled active one
    its need.  Loads only fall, so a type that can peel stays able to and
    the set of types that peel does not depend on the order: a worklist
    takes each type once, when its load first drops low enough.
    O(k + |E(H)|); the edges of the graph are never read.
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
    order = [t for t in range(k) if slack[t] >= 0 and t not in frozen]
    for t in order:  # the worklist: types made ready are appended as it runs
        gain = need[t] - fixed[t]
        for u in type_graph.adj[t]:
            if slack[u] < 0 <= slack[u] + gain and u not in frozen:
                order.append(u)
            slack[u] += gain
    return tuple(order)


def compute_color_categories(
    instance: PrecolorInstance, pinned: dict[int, set[int]]
) -> tuple[ColorCategory, ...]:
    """Group the pinned colors by the set of types they are precolored in.

    Reads the pins from ``pinned``, the instance only for its budget and
    vertex count.  The category with the empty type set holds the unpinned
    colors among 1..min(r, n + #pinned), at least min(r - #pinned, n) of
    them, and is always present, possibly with zero colors.
    """
    pinned_types: dict[int, list[int]] = {}
    for t, colors in pinned.items():
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
    settled: Iterable[int],
    categories: tuple[ColorCategory, ...],
    type_graph: TypeGraph,
) -> tuple[IlpProblem, tuple[ColorSubcategory, ...]]:
    """Count variables for the maximal subcategories, the category
    equations and the covering rows of the open types, those not
    ``settled``.

    One compatibility table, read off the type graph's adjacency masks,
    serves every category: ``compat[t]`` holds the open types other than t
    that are not adjacent to t.  A category's pool is the intersection of
    its types' rows, and its subcategories are its types joined with each
    maximal clique of ``compat`` on that pool."""
    k = type_graph.num_types
    open_types = ((1 << k) - 1) & ~sum(1 << t for t in settled)
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
    for t in mask_members(open_types):
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
    settled: tuple[int, ...]  # the frozen types, then the peel order
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
    each in id order.  An open class's run is its routed colors not pinned
    inside it; the surplus stays off the type, and the covering rows
    guarantee enough colors.  The settled classes come last, in reverse
    order.  A frozen class's run is its lowest pinned color.  A peeled
    class's run is every color not on a neighbouring class and not pinned
    inside; the peel rule guarantees enough of them within the budget.
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

    for t in set(range(k)).difference(compiled.settled):
        fill(t, filterfalse(palette[t].__contains__, sorted(routed[t])))
    adj = compiled.type_graph.adj
    for t in reversed(compiled.settled):
        if palette[t] and not partition.clique_flag[t]:  # frozen: no new color
            fill(t, [min(palette[t])])
        else:
            near = palette[t].union(*map(palette.__getitem__, adj[t]))
            fill(t, filterfalse(near.__contains__, count(1)))
    return ColoringWitness(tuple(color_of))


# every type settled: the category equations alone always hold
_EMPTY_SYSTEM = IlpProblem(0, (), (), ())


def compile_precolor(instance: PrecolorInstance) -> CompiledPrecolor:
    """The instance's type partition, type graph, pinned colors, settled
    types, color categories, subcategories and integer system; the solver
    and the CLI's ``--dump-ilp`` both compile through here.  The pins are
    read once, into ``pinned``.  When every type is settled, it computes no
    categories and returns the empty system."""
    partition = compute_type_partition(instance.graph)
    type_graph = build_type_graph(instance.graph, partition)
    pinned = pinned_colors(instance, partition.type_of, partition.num_types)
    frozen = reduce_independent_types(pinned, partition)
    settled = (*frozen, *peel_types(type_graph, frozen, pinned, instance.num_colors))
    if len(settled) == partition.num_types:
        return CompiledPrecolor(partition, type_graph, pinned, settled, (), (), _EMPTY_SYSTEM)
    categories = compute_color_categories(instance, pinned)
    problem, subcats = build_precolor_ilp(settled, categories, type_graph)
    return CompiledPrecolor(
        partition, type_graph, pinned, settled, categories, subcats, problem
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
