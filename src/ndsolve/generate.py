"""Seeded generators for graphs with prescribed type structure.

A :class:`TypeTemplate` plays the quotient construction backwards: it fixes
the number of classes, their sizes, which classes are cliques, and which
pairs of classes are fully joined.  The generated graph then has
neighborhood diversity at most the template's class count (two template
classes may coincidentally end up with identical neighborhoods, in which
case the computed partition merges them).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass

from .graphs import Graph
from .instances import MotifInstance, PathsInstance, PrecolorInstance

PROBLEMS = ("motif", "paths", "precolor")

MAX_COLORS = 16


@dataclass(frozen=True)
class TypeTemplate:
    """Blueprint for a graph with at most ``num_types`` neighborhood types."""

    sizes: tuple[int, ...]
    clique: tuple[bool, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        k = len(self.sizes)
        if k == 0 or any(s < 1 for s in self.sizes):
            raise ValueError("every template class needs a positive size")
        if len(self.clique) != k:
            raise ValueError("one clique flag per class required")
        seen = set()
        for a, b in self.edges:
            if not (0 <= a < k and 0 <= b < k):
                raise ValueError(f"template edge ({a}, {b}) out of range")
            if a == b:
                raise ValueError(f"template self-loop at class {a}")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise ValueError(f"duplicate template edge {key}")
            seen.add(key)

    @property
    def num_types(self) -> int:
        return len(self.sizes)

    @property
    def num_vertices(self) -> int:
        return sum(self.sizes)


def generate_from_template(template: TypeTemplate, seed: int) -> Graph:
    """Materialize a template into a concrete graph, deterministically.

    Vertex ids are shuffled by the seed so class membership is not readable
    from the id layout.  Each vertex's row comes from its class: the
    vertices of the classes joined to it, plus the rest of its own class
    when that class is a clique.  The vertices of an independent class share
    one row, and no edge list is built; the template has already ruled out
    self-loops and repeated class edges, so no edge needs a check.
    """
    n = template.num_vertices
    rng = random.Random(seed)
    ids = list(range(n))
    rng.shuffle(ids)

    blocks: list[list[int]] = []
    offset = 0
    for size in template.sizes:
        blocks.append(ids[offset : offset + size])
        offset += size

    joined: list[list[int]] = [[] for _ in blocks]
    for a, b in template.edges:
        joined[a] += blocks[b]
        joined[b] += blocks[a]
    rows: list[tuple[int, ...]] = [()] * n
    for t, block in enumerate(blocks):
        if template.clique[t]:
            full = tuple(sorted(joined[t] + block))
            for v in block:
                i = bisect_left(full, v)
                rows[v] = full[:i] + full[i + 1 :]
        else:
            row = tuple(sorted(joined[t]))
            for v in block:
                rows[v] = row
    return Graph.from_neighbor_lists(rows)


def random_template(
    num_types: int,
    n: int,
    seed: int,
    edge_prob: float = 0.5,
    clique_prob: float = 0.5,
) -> TypeTemplate:
    """Random template: random composition of n, random flags and class edges.

    Raises ``ValueError``, ending with the value at fault, for a class count
    outside 1..n and for a probability outside [0, 1] (NaN included).
    """
    if not 1 <= num_types <= n:
        raise ValueError(f"need at least one vertex per class, 1..{n} classes: {num_types}")
    for name, prob in (("edge", edge_prob), ("clique", clique_prob)):
        if not 0 <= prob <= 1:
            raise ValueError(f"{name} probability must be in [0, 1]: {prob}")
    rng = random.Random(seed)
    cuts = sorted(rng.sample(range(1, n), num_types - 1)) if num_types > 1 else []
    bounds = [0, *cuts, n]
    sizes = tuple(bounds[i + 1] - bounds[i] for i in range(num_types))
    clique = tuple(rng.random() < clique_prob for _ in range(num_types))
    edges = tuple(
        (a, b)
        for a in range(num_types)
        for b in range(a + 1, num_types)
        if rng.random() < edge_prob
    )
    return TypeTemplate(sizes, clique, edges)


def sparse_template(num_types: int, n: int, seed: int, cap: int = 16) -> TypeTemplate:
    """Template whose graphs stay sparse even for large n.

    One large independent class absorbs most vertices and attaches to a
    chain of small classes, so the edge count is O(n * cap) instead of the
    quadratic blowup a large fully-joined class pair would cause.  Useful
    for scaling runs.  Raises ``ValueError``, ending with the class count,
    when that is outside 1..n.
    """
    if not 1 <= num_types <= n:
        raise ValueError(f"need at least one vertex per class, 1..{n} classes: {num_types}")
    rng = random.Random(seed)
    small = [1 + rng.randrange(cap) for _ in range(num_types - 1)]
    while sum(small) >= n:  # ends by n >= num_types once every size is 1
        small = [max(1, s // 2) for s in small]
    sizes = tuple([n - sum(small), *small])
    clique = tuple([False] + [rng.random() < 0.5 for _ in small])
    edges = {(i, i + 1) for i in range(num_types - 1)}
    for a in range(1, num_types):
        for b in range(a + 2, num_types):
            if rng.random() < 0.3:
                edges.add((a, b))
    return TypeTemplate(sizes, clique, tuple(sorted(edges)))


def random_instance(
    problem: str,
    template: TypeTemplate,
    seed: int,
    colors: int = 4,
    motif_size: int | None = None,
    num_pairs: int | None = None,
    num_colors: int = 4,
    precolor_fraction: float = 0.35,
) -> MotifInstance | PathsInstance | PrecolorInstance:
    """Random valid instance of the given problem over a template graph.

    Deterministic for a fixed seed.  Raises ``ValueError``, ending with the
    value at fault, for annotation requests the graph cannot satisfy (a
    negative pair count, or more pair ends than vertices), for palettes and
    color budgets outside 1..``MAX_COLORS`` and for a precolor fraction
    outside [0, 1].
    """
    if problem not in PROBLEMS:
        raise ValueError(f"unknown problem {problem!r}")
    rng = random.Random(seed)
    graph = generate_from_template(template, rng.getrandbits(32))
    n = graph.n

    if problem == "motif":
        if not 1 <= colors <= MAX_COLORS:
            raise ValueError(f"palette size must be in 1..{MAX_COLORS}: {colors}")
        vertex_color = tuple(rng.randint(1, colors) for _ in range(n))
        size = motif_size if motif_size is not None else rng.randint(1, min(6, n))
        if not 1 <= size <= n:
            raise ValueError(f"motif size {size} infeasible for {n} vertices")
        if rng.random() < 0.5:
            # colors of a random vertex subset: biased toward yes-instances
            picked = rng.sample(range(n), size)
            bag = tuple(vertex_color[v] for v in picked)
        else:
            bag = tuple(rng.randint(1, colors) for _ in range(size))
        return MotifInstance(graph, vertex_color, bag)

    if problem == "paths":
        p = num_pairs if num_pairs is not None else rng.randint(0, min(3, n // 2))
        if not 0 <= p <= n // 2:
            raise ValueError(
                f"terminal pair count must be in 0..{n // 2}, "
                f"two distinct vertices each: {p}"
            )
        terminals = rng.sample(range(n), 2 * p)
        pairs = tuple(
            (terminals[2 * i], terminals[2 * i + 1]) for i in range(p)
        )
        return PathsInstance(graph, pairs)

    if not 1 <= num_colors <= MAX_COLORS:
        raise ValueError(f"color budget must be in 1..{MAX_COLORS}: {num_colors}")
    if not 0 <= precolor_fraction <= 1:
        raise ValueError(f"precolor fraction must be in [0, 1]: {precolor_fraction}")
    order = list(range(n))
    rng.shuffle(order)
    take = int(round(precolor_fraction * n))
    precolor: dict[int, int] = {}
    for v in order[:take]:
        blocked = {precolor[w] for w in graph.adj[v] if w in precolor}
        free = [c for c in range(1, num_colors + 1) if c not in blocked]
        if free:
            precolor[v] = rng.choice(free)
    return PrecolorInstance(graph, precolor, num_colors)
