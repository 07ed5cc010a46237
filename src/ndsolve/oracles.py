"""Brute-force deciders for all three problems.

These are deliberately independent of the decomposition machinery and the
integer-feasibility engine: they look only at the raw graph, so they can
serve as ground truth for the structured solvers.  Hard size guards raise
instead of silently grinding; unbounded runs would only hide bugs behind
timeouts.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, islice

from .instances import (
    MotifInstance,
    PathsInstance,
    PrecolorInstance,
    induced_connected,
)

MOTIF_MAX_VERTICES = 15
PATHS_MAX_VERTICES = 15
PATHS_MAX_PAIRS = 4
PRECOLOR_MAX_VERTICES = 12


class SizeGuardError(RuntimeError):
    """Instance exceeds the documented brute-force size limits."""


def oracle_motif(instance: MotifInstance) -> tuple[bool, tuple[int, ...] | None]:
    """Exhaustive check over all vertex subsets of the motif's size."""
    g = instance.graph
    if g.n > MOTIF_MAX_VERTICES:
        raise SizeGuardError(f"motif oracle handles at most {MOTIF_MAX_VERTICES} vertices")
    want = instance.motif_counts()
    size = len(instance.motif)
    if size > g.n:
        return False, None
    for subset in combinations(range(g.n), size):
        if Counter(instance.vertex_color[v] for v in subset) != want:
            continue
        if induced_connected(g, subset):
            return True, subset
    return False, None


def oracle_paths(
    instance: PathsInstance,
) -> tuple[bool, tuple[tuple[int, ...], ...] | None]:
    """Backtracking: route the pairs in order, growing each path by DFS."""
    g = instance.graph
    if g.n > PATHS_MAX_VERTICES:
        raise SizeGuardError(f"paths oracle handles at most {PATHS_MAX_VERTICES} vertices")
    if len(instance.pairs) > PATHS_MAX_PAIRS:
        raise SizeGuardError(f"paths oracle handles at most {PATHS_MAX_PAIRS} pairs")

    pairs = instance.pairs
    used = set(instance.terminals())
    paths: list[tuple[int, ...]] = []

    def route(i: int) -> bool:
        if i == len(pairs):
            return True
        s, t = pairs[i]
        trail = [s]

        def grow(v: int) -> bool:
            if v == t:
                paths.append(tuple(trail))
                if route(i + 1):
                    return True
                paths.pop()
                return False
            for w in g.adj[v]:
                if w == t:
                    trail.append(w)
                    if grow(w):
                        return True
                    trail.pop()
                elif w not in used:
                    used.add(w)
                    trail.append(w)
                    if grow(w):
                        return True
                    trail.pop()
                    used.remove(w)
            return False

        return grow(s)

    if route(0):
        return True, tuple(paths)
    return False, None


def oracle_precolor(instance: PrecolorInstance) -> tuple[bool, tuple[int, ...] | None]:
    """Backtracking over uncolored vertices in id order, colors ascending.

    Spare interchangeable colors never help, so the palette is capped at
    the precolored colors plus one fresh color per uncolored vertex.
    """
    g = instance.graph
    if g.n > PRECOLOR_MAX_VERTICES:
        raise SizeGuardError(
            f"precolor oracle handles at most {PRECOLOR_MAX_VERTICES} vertices"
        )
    uncolored = [v for v in range(g.n) if v not in instance.precolor]
    pre_used = set(instance.precolor.values())
    fresh = (c for c in range(1, instance.num_colors + 1) if c not in pre_used)
    palette = sorted(pre_used) + list(islice(fresh, len(uncolored)))

    coloring = dict(instance.precolor)

    def place(i: int) -> bool:
        if i == len(uncolored):
            return True
        v = uncolored[i]
        blocked = {coloring[w] for w in g.adj[v] if w in coloring}
        for c in palette:
            if c not in blocked:
                coloring[v] = c
                if place(i + 1):
                    return True
                del coloring[v]
        return False

    if place(0):
        return True, tuple(coloring[v] for v in range(g.n))
    return False, None
