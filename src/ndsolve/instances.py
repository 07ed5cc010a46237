"""Problem instances layered on a graph, solve reports and witness checks.

Instances validate their invariants on construction and are immutable
afterwards, so they can be shared freely across concurrent solver runs.
The witness validators raise ``ValueError`` with a description of the first
violated condition; they are shared by the solvers, the brute-force
deciders and the test suite.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Iterable, Mapping, Sequence

from .graphs import Graph


@dataclass(frozen=True)
class MotifInstance:
    """Vertex-colored graph plus a target color multiset.

    The coloring need not be proper.  ``motif`` is stored as a sorted tuple
    so that structurally equal instances compare equal.
    """

    graph: Graph
    vertex_color: tuple[int, ...]
    motif: tuple[int, ...]

    def __post_init__(self):
        if len(self.vertex_color) != self.graph.n:
            raise ValueError("every vertex needs exactly one color")
        if min(self.vertex_color, default=1) < 1:
            raise ValueError("vertex colors must be positive integers")
        if not self.motif:
            raise ValueError("motif must be nonempty")
        if min(self.motif) < 1:
            raise ValueError("motif colors must be positive integers")
        object.__setattr__(self, "vertex_color", tuple(self.vertex_color))
        object.__setattr__(self, "motif", tuple(sorted(self.motif)))

    def motif_counts(self) -> Counter:
        return Counter(self.motif)


@dataclass(frozen=True)
class PathsInstance:
    """Graph plus an ordered list of terminal pairs to connect disjointly."""

    graph: Graph
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple((s, t) for s, t in self.pairs))
        seen: set[int] = set()
        for s, t in self.pairs:
            for v in (s, t):
                if not 0 <= v < self.graph.n:
                    raise ValueError(f"terminal {v} out of range")
            if s == t:
                raise ValueError(f"terminal pair ({s}, {t}) has equal endpoints")
            if s in seen or t in seen:
                raise ValueError("terminal vertices must be pairwise distinct")
            seen.add(s)
            seen.add(t)

    def terminals(self) -> tuple[int, ...]:
        return tuple(v for pair in self.pairs for v in pair)


@dataclass(frozen=True)
class PrecolorInstance:
    """Graph with a proper partial coloring and a color budget 1..num_colors.

    ``precolor`` is kept as a read-only view of a private copy.
    """

    graph: Graph
    precolor: Mapping[int, int]
    num_colors: int

    def __post_init__(self):
        if self.num_colors < 1:
            raise ValueError("color budget must be positive")
        object.__setattr__(self, "precolor", MappingProxyType(dict(self.precolor)))
        for v, c in self.precolor.items():
            if not 0 <= v < self.graph.n:
                raise ValueError(f"precolored vertex {v} out of range")
            if not 1 <= c <= self.num_colors:
                raise ValueError(f"color {c} out of range 1..{self.num_colors}")
        for v, c in self.precolor.items():
            for w in self.graph.adj[v]:
                if w > v and self.precolor.get(w) == c:
                    raise ValueError(
                        f"improper precoloring: adjacent vertices {v} and {w} "
                        f"share color {c}"
                    )


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a solver run: answer, optional witness and statistics."""

    answer: bool
    nd: int
    elapsed_ms: float
    witness: Any | None = None
    ilp_vars: int | None = None


def induced_connected(graph: Graph, vertices: Iterable[int]) -> bool:
    """True iff the subgraph induced by ``vertices`` is connected (or empty)."""
    vset = set(vertices)
    if not vset:
        return True
    start = next(iter(vset))
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        row = graph.adj[u]
        # Walk the smaller side: a long row (a hub's) is searched once per
        # member instead.  A search costs about four set lookups.
        if len(row) > 4 * len(vset):
            row = [w for w in vset if graph.has_edge(u, w)]
        for w in row:
            if w in vset and w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(vset)


def validate_motif_witness(instance: MotifInstance, vertices: Sequence[int]) -> None:
    """Check a motif witness: exact color multiset and connected induced subgraph."""
    g = instance.graph
    vset = set(vertices)
    if len(vset) != len(vertices):
        raise ValueError("witness repeats a vertex")
    for v in vertices:
        if not 0 <= v < g.n:
            raise ValueError(f"witness vertex {v} out of range")
    if Counter(instance.vertex_color[v] for v in vertices) != instance.motif_counts():
        raise ValueError("witness colors do not match the motif multiset")
    if not induced_connected(g, vset):
        raise ValueError("witness induces a disconnected subgraph")


def validate_paths_witness(
    instance: PathsInstance,
    paths: Sequence[Sequence[int]],
    type_of: Sequence[int] | None = None,
) -> None:
    """Check a disjoint-paths witness.

    Verifies endpoints (in pair order), adjacency along every path, pairwise
    vertex-disjointness, and, when ``type_of`` is given, that no path uses
    more than one non-endpoint vertex of any type.
    """
    g = instance.graph
    if len(paths) != len(instance.pairs):
        raise ValueError("witness must contain one path per terminal pair")
    used: set[int] = set()
    for (s, t), path in zip(instance.pairs, paths):
        if len(path) < 2 or path[0] != s or path[-1] != t:
            raise ValueError(f"path for pair ({s}, {t}) has wrong endpoints")
        if len(set(path)) != len(path):
            raise ValueError("path repeats a vertex")
        for u, v in zip(path, path[1:]):
            if not g.has_edge(u, v):
                raise ValueError(f"path uses the missing edge ({u}, {v})")
        overlap = used.intersection(path)
        if overlap:
            raise ValueError(f"paths share vertices {sorted(overlap)}")
        used.update(path)
        if type_of is not None:
            internal = Counter(type_of[v] for v in path[1:-1])
            if internal and max(internal.values()) > 1:
                raise ValueError("path uses two internal vertices of one type")


def validate_coloring_witness(
    instance: PrecolorInstance, colors: Sequence[int]
) -> None:
    """Check a coloring witness: total, within budget, proper, extends input."""
    g = instance.graph
    if len(colors) != g.n:
        raise ValueError("coloring must assign a color to every vertex")
    top = instance.num_colors
    if g.n and not (min(colors) >= 1 and max(colors) <= top):
        v = next(v for v, c in enumerate(colors) if not 1 <= c <= top)
        raise ValueError(f"vertex {v} colored outside 1..{top}")
    for v, c in instance.precolor.items():
        if colors[v] != c:
            raise ValueError(f"coloring does not keep precolor of vertex {v}")
    for u, row in enumerate(g.adj):  # each edge once, in sorted order
        c = colors[u]
        for v in row:
            if v > u and colors[v] == c:
                raise ValueError(f"edge ({u}, {v}) is monochromatic")
