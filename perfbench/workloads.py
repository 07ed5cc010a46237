"""Seeded instance lists for the benchmark workloads.

Every instance comes from a :class:`ndsolve.TypeTemplate` that this module
draws and materializes itself, so the benchmark knows the template class
of every vertex.  That knowledge lets the generators plant answers by
construction instead of filtering instances by what a solver says:

* motif (large-n, high-k): one color per template class.  Every motif
  color is present in the graph, so the solver's color-pool check passes
  for every candidate set that covers the motif's classes and the mask
  enumeration really runs.  A motif over a connected set of classes is a
  yes-instance, one over a disconnected set is a no-instance.  many-small
  uses random colors; the oracles check those answers.
* precolor: the template is built around a hidden proper coloring (clique
  classes get distinct colors, joined classes disjoint color sets, so no
  clique is larger than the color budget).  Precoloring a sample of the
  vertices from it gives a yes-instance; a greedy random precoloring
  gives an instance whose answer nobody planted.
* paths: random terminal pairs; the answer is not planted.

Instance lists depend only on the workload's generator parameters and the
seed.  Nothing is ever dropped or redrawn because of how a solver behaves
on it, so slow instances and instances the solvers fail on stay in.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ndsolve import (
    Graph,
    MotifInstance,
    PathsInstance,
    PrecolorInstance,
    TypeTemplate,
    serialize_instance,
)


@dataclass(frozen=True)
class Item:
    """One serialized instance plus what the generator knows about it."""

    problem: str
    k: int  # template class count, an upper bound on the neighborhood diversity
    edges: int
    text: str
    planted: bool | None  # answer known by construction, None when not planted


@dataclass(frozen=True)
class _Drawn:
    template: TypeTemplate
    graph: Graph
    blocks: tuple[tuple[int, ...], ...]  # template class -> its vertices
    palette: tuple[tuple[int, ...], ...]  # template class -> hidden colors


def _materialize(template: TypeTemplate, rng: random.Random) -> tuple[Graph, tuple]:
    n = template.num_vertices
    ids = list(range(n))
    rng.shuffle(ids)
    blocks = []
    offset = 0
    for size in template.sizes:
        blocks.append(tuple(ids[offset : offset + size]))
        offset += size
    edges = []
    for c, block in enumerate(blocks):
        if template.clique[c]:
            edges.extend(
                (block[i], block[j])
                for i in range(len(block))
                for j in range(i + 1, len(block))
            )
    for a, b in template.edges:
        edges.extend((u, v) for u in blocks[a] for v in blocks[b])
    return Graph.from_edges(n, edges), tuple(blocks)


def _draw(
    rng: random.Random,
    sizes: list[int],
    clique: list[bool],
    extra_prob: float,
    num_colors: int | None = None,
    hub: int | None = None,
    density: float | None = None,
) -> _Drawn:
    """Random template, optionally around a hidden proper coloring.

    With ``num_colors``, each class gets its hidden colors first (a clique
    as many distinct colors as it has vertices, so clique sizes are capped
    by the budget) and class edges go only where the two classes' hidden
    colors are disjoint, so the hidden coloring stays proper.  Class edges
    are a random spanning tree (where allowed) plus extra edges with
    ``extra_prob``; or, with ``density``, exactly that fraction of the
    allowed class pairs, drawn uniformly.  With ``hub``, class 0 is joined
    to class ``hub`` and to nothing else.
    """
    k = len(sizes)
    colors = list(range(1, (num_colors or 1) + 1))
    palette: list[tuple[int, ...]] = []
    for c in range(k):
        if num_colors is None:
            palette.append(())
        elif clique[c]:
            sizes[c] = min(sizes[c], num_colors)
            palette.append(tuple(sorted(rng.sample(colors, sizes[c]))))
        else:
            palette.append((rng.choice(colors),))

    def disjoint(a: int, b: int) -> bool:
        return not set(palette[a]) & set(palette[b])

    joined = set()
    first = 0
    if hub is not None:
        first = 1
        if not disjoint(0, hub):
            palette[0] = (rng.choice([x for x in colors if x not in palette[hub]]),)
        joined.add((0, hub))
    allowed = [(a, b) for a in range(first, k) for b in range(a + 1, k) if disjoint(a, b)]
    if density is not None:
        joined.update(rng.sample(allowed, round(density * len(allowed))))
    else:
        for v in range(first + 1, k):
            options = [u for u in range(first, v) if disjoint(u, v)]
            if options:
                joined.add((rng.choice(options), v))
        joined.update(p for p in allowed if p not in joined and rng.random() < extra_prob)
    template = TypeTemplate(tuple(sizes), tuple(clique), tuple(sorted(joined)))
    graph, blocks = _materialize(template, rng)
    return _Drawn(template, graph, blocks, tuple(palette))


def _class_graph_connected(template: TypeTemplate, classes: list[int]) -> bool:
    inside = set(classes)
    adj: dict[int, set[int]] = {c: set() for c in inside}
    for a, b in template.edges:
        if a in inside and b in inside:
            adj[a].add(b)
            adj[b].add(a)
    seen = {classes[0]}
    stack = [classes[0]]
    while stack:
        for d in adj[stack.pop()]:
            if d not in seen:
                seen.add(d)
                stack.append(d)
    return len(seen) == len(inside)


def _motif(rng: random.Random, drawn: _Drawn, size: int, want_yes: bool) -> MotifInstance:
    """One color per class; the motif's classes are connected iff ``want_yes``.

    A yes-witness takes at least one vertex of every motif class, and
    fully joined classes along a spanning tree of them connect any such
    pick; a disconnected class set can never be covered by one connected
    vertex set.  The motif repeats colors up to the class sizes.
    """
    template = drawn.template
    k = template.num_types
    vertex_color = [0] * template.num_vertices
    for c, block in enumerate(drawn.blocks):
        for v in block:
            vertex_color[v] = c + 1
    for _ in range(1000):
        width = rng.randint(2, min(5, size, k))
        classes = rng.sample(range(k), width)
        if _class_graph_connected(template, classes) == want_yes and sum(
            template.sizes[c] for c in classes
        ) >= size:
            break
    else:
        raise ValueError("template admits no motif class set of the wanted shape")
    counts = {c: 1 for c in classes}
    while sum(counts.values()) < size:
        c = rng.choice(classes)
        if counts[c] < template.sizes[c]:
            counts[c] += 1
    bag = tuple(c + 1 for c, count in counts.items() for _ in range(count))
    return MotifInstance(drawn.graph, tuple(vertex_color), bag)


def _paths(rng: random.Random, graph: Graph, pairs: int, blocks=None) -> PathsInstance:
    """Random terminal pairs; with ``blocks``, each terminal in its own class."""
    if blocks is None:
        terminals = rng.sample(range(graph.n), 2 * pairs)
    else:
        terminals = [rng.choice(blocks[c]) for c in rng.sample(range(len(blocks)), 2 * pairs)]
    return PathsInstance(
        graph, tuple((terminals[2 * i], terminals[2 * i + 1]) for i in range(pairs))
    )


def _precolor(
    rng: random.Random, drawn: _Drawn, num_colors: int, fraction: float, planted: bool
) -> PrecolorInstance:
    """Precolor about ``fraction`` of the vertices.

    Planted: colors come from the hidden proper coloring, so the
    precoloring extends.  Not planted: each sampled vertex takes a random
    color free among its precolored neighbors, as a user's partial
    coloring might.
    """
    graph = drawn.graph
    precolor: dict[int, int] = {}
    if planted:
        for c, block in enumerate(drawn.blocks):
            hidden = drawn.palette[c]
            for i, v in enumerate(block):
                if rng.random() < fraction:
                    precolor[v] = hidden[i % len(hidden)]
    else:
        order = list(range(graph.n))
        rng.shuffle(order)
        for v in order[: round(fraction * graph.n)]:
            blocked = {precolor[w] for w in graph.adj[v] if w in precolor}
            free = [x for x in range(1, num_colors + 1) if x not in blocked]
            if free:
                precolor[v] = rng.choice(free)
    return PrecolorInstance(graph, precolor, num_colors)


def _item(instance, k: int, planted: bool | None) -> Item:
    problem = {
        MotifInstance: "motif",
        PathsInstance: "paths",
        PrecolorInstance: "precolor",
    }[type(instance)]
    text = serialize_instance(instance)
    return Item(problem, k, instance.graph.m, text, planted)


def _random_classes(
    rng: random.Random, k: int, lo: int, hi: int, even: bool = False
) -> tuple[list, list]:
    """Class sizes in lo..hi and clique flags; ``even`` makes exactly k // 2 cliques."""
    if even:
        cliques = set(rng.sample(range(k), k // 2))
        clique = [c in cliques for c in range(k)]
    else:
        clique = [rng.random() < 0.5 for _ in range(k)]
    sizes = [rng.randint(lo, hi) for _ in range(k)]
    return sizes, clique


# large-n: k = 6 over a sparse template.  One big independent class is
# joined to a hub class of fixed size, so the edge count is about
# HUB * n and the n-curve is not blurred by a random hub size.
LARGE_N = (20000, 35000, 50000)
LARGE_K = 6
LARGE_HUB = 3
LARGE_COLORS = 4


def _large_n(rng: random.Random) -> list[Item]:
    items = []
    for index, n in enumerate(LARGE_N):
        sizes, clique = _random_classes(rng, LARGE_K, 2, 4)
        sizes[1] = LARGE_HUB
        clique[0] = False
        sizes[0] = n - sum(sizes[1:])
        drawn = _draw(rng, sizes, clique, 0.3, LARGE_COLORS, hub=1)
        yes = index % 2 == 0
        items.append(_item(_motif(rng, drawn, 5, yes), LARGE_K, yes))
        items.append(_item(_paths(rng, drawn.graph, 3), LARGE_K, None))
        items.append(
            _item(_precolor(rng, drawn, LARGE_COLORS, 0.35, yes), LARGE_K, True if yes else None)
        )
    return items


# high-k: small n, large k.  (k, planted answer) for motif and precolor.
# Many instances per k, with exact clique and class-edge counts, keep a
# pass's statistics steady from seed to seed.  The counts are chosen so
# that each median falls inside a cluster of like instances (motif:
# k = 10 no-instances; paths: k = 7; precolor: planted yes-instances;
# all ops: k = 10 motif) and the tail inside the k = 13 motif
# no-instances, instead of on a boundary between clusters.  Motif
# yes-instances stop at a seed-dependent mask, and a precolor no is often
# proved at once, so both spread widely.
HIGH_MOTIF = (
    ((10, False),) * 80 + ((10, True),) * 8
    + ((12, False),) * 8 + ((12, True),) * 4
    + ((13, False),) * 24 + ((13, True),) * 4
)
HIGH_MOTIF_SIZE = 7
HIGH_MOTIF_DENSITY = 0.25
HIGH_PATHS = (7,) * 80 + (8,) * 6
HIGH_PATHS_PAIRS = 3
HIGH_PATHS_DENSITY = 0.5
HIGH_PRECOLOR = ((10, True), (10, True), (10, True), (10, False)) * 40
HIGH_COLORS = 6
HIGH_PRECOLOR_DENSITY = 0.8
HIGH_PRECOLOR_FRACTION = 0.75


def _high_k(rng: random.Random) -> list[Item]:
    items = []
    for k, yes in HIGH_MOTIF:
        sizes, clique = _random_classes(rng, k, 4, 12, even=True)
        drawn = _draw(rng, sizes, clique, 0.0, density=HIGH_MOTIF_DENSITY)
        items.append(_item(_motif(rng, drawn, HIGH_MOTIF_SIZE, yes), k, yes))
    for k in HIGH_PATHS:
        sizes, clique = _random_classes(rng, k, 4, 12, even=True)
        drawn = _draw(rng, sizes, clique, 0.0, density=HIGH_PATHS_DENSITY)
        items.append(_item(_paths(rng, drawn.graph, HIGH_PATHS_PAIRS, drawn.blocks), k, None))
    for k, planted in HIGH_PRECOLOR:
        sizes, clique = _random_classes(rng, k, 4, 4, even=True)
        drawn = _draw(rng, sizes, clique, 0.0, HIGH_COLORS, density=HIGH_PRECOLOR_DENSITY)
        inst = _precolor(rng, drawn, HIGH_COLORS, HIGH_PRECOLOR_FRACTION, planted)
        items.append(_item(inst, k, True if planted else None))
    # spread each problem's instances over the whole pass: the machine's
    # speed drifts over seconds, and a problem run in one block would see
    # a single speed
    rng.shuffle(items)
    return items


# Paths at k = 10 with 3 pairs make ILPs of up to ~1500 variables, on
# which the engine's recursive search raises RecursionError about half
# the time.  Each such op also takes seconds and tens of MB of stack, so
# in the timed loop they made throughput and peak memory swing by half
# between seeds.  They run once per high-k run instead, untimed and
# outside the metrics, and the report counts how many raise.
PROBE_PATHS = (10, 10)


def recursion_probe(seed: int) -> list[Item]:
    """The high-k run's untimed k = 10 paths instances for ``seed``."""
    rng = random.Random(f"high-k-probe:{seed}")
    items = []
    for k in PROBE_PATHS:
        sizes, clique = _random_classes(rng, k, 4, 12, even=True)
        drawn = _draw(rng, sizes, clique, 0.0, density=HIGH_PATHS_DENSITY)
        items.append(_item(_paths(rng, drawn.graph, HIGH_PATHS_PAIRS, drawn.blocks), k, None))
    return items


# many-small: n <= 12, k in 2..5, small enough for the brute-force oracles.
SMALL_COUNT = 3000
SMALL_MAX_N = 12
SMALL_COLORS = 4


def _many_small(rng: random.Random) -> list[Item]:
    items = []
    for i in range(SMALL_COUNT):
        problem = ("motif", "paths", "precolor")[i % 3]
        k = rng.randint(2, 5)
        sizes, clique = _random_classes(rng, k, 1, SMALL_MAX_N // k)
        drawn = _draw(rng, sizes, clique, 0.5, SMALL_COLORS)
        n = drawn.graph.n
        if problem == "motif":
            colors = [rng.randint(1, 3) for _ in range(n)]
            size = rng.randint(1, min(4, n))
            if rng.random() < 0.5:
                bag = tuple(colors[v] for v in rng.sample(range(n), size))
            else:
                bag = tuple(rng.randint(1, 3) for _ in range(size))
            items.append(_item(MotifInstance(drawn.graph, tuple(colors), bag), k, None))
        elif problem == "paths":
            pairs = rng.randint(0, min(3, n // 2))
            items.append(_item(_paths(rng, drawn.graph, pairs), k, None))
        else:
            planted = rng.random() < 0.5
            inst = _precolor(rng, drawn, SMALL_COLORS, 0.35, planted)
            items.append(_item(inst, k, True if planted else None))
    return items


_GENERATORS = {"large-n": _large_n, "high-k": _high_k, "many-small": _many_small}


def build(workload: str, seed: int) -> list[Item]:
    """The workload's instance list for ``seed``; identical for equal seeds."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
