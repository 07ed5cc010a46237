"""Neighborhood-type partitions, the quotient type graph, and a small
branching vertex-cover search.

Two vertices are non-adjacent twins when their open neighborhoods coincide
and adjacent twins when their closed neighborhoods coincide; "same type"
is the union of the two relations.  Same-type is an equivalence relation,
each of its classes is a clique or an independent set, and between any two
classes there are either all possible edges or none.  Because the relation
is an equivalence, grouping vertices by their canonical neighborhoods
yields the coarsest type-respecting partition directly, with no merge pass:
:func:`compute_type_partition` hashes the sorted open and closed
neighborhood of every vertex and unions the groups, running in time
linear in the adjacency size.

The number of classes is the neighborhood diversity of the graph.  A graph
with a vertex cover of size ``c`` has at most ``2**c + c`` classes, which
:func:`compute_vertex_cover` lets tests check on random inputs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from .graphs import Graph


@dataclass(frozen=True)
class TypePartition:
    """Coarsest partition of the vertices into same-type classes.

    Classes are numbered in order of their smallest member, so repeated runs
    produce identical output.  Singleton classes carry ``clique_flag`` False
    by convention; consumers needing "can self-connect" semantics must check
    size >= 2 together with the flag.
    """

    type_of: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    clique_flag: tuple[bool, ...]
    num_types: int


@dataclass(frozen=True)
class TypeGraph:
    """Quotient graph with one vertex per type class.

    Two types are adjacent iff the original graph has every possible edge
    between their classes; intra-class structure lives in ``clique_flag``.
    """

    num_types: int
    adj: tuple[tuple[int, ...], ...]
    size: tuple[int, ...]
    clique_flag: tuple[bool, ...]

    def has_edge(self, a: int, b: int) -> bool:
        return b in self.adj[a]

    def linked(self, a: int, b: int) -> bool:
        """Adjacent types, or one clique type seen from itself."""
        if a == b:
            return self.clique_flag[a]
        return self.has_edge(a, b)

    def edges(self) -> Iterator[tuple[int, int]]:
        for a in range(self.num_types):
            for b in self.adj[a]:
                if a < b:
                    yield (a, b)


def same_type(graph: Graph, u: int, v: int) -> bool:
    """Same-type test: N(u) and N(v) agree once u and v are ignored."""
    if u == v:
        return True
    nu = set(graph.adj[u])
    nu.discard(v)
    nv = set(graph.adj[v])
    nv.discard(u)
    return nu == nv


def compute_type_partition(graph: Graph) -> TypePartition:
    """Group the vertices into the minimum number of same-type classes.

    Runs in time linear in the adjacency size regardless of how many
    classes there are.
    """
    n = graph.n
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    open_first: dict[tuple[int, ...], int] = {}
    closed_first: dict[tuple[int, ...], int] = {}
    for v in range(n):
        row = graph.adj[v]
        leader = open_first.setdefault(row, v)
        if leader != v:
            union(leader, v)
        # closed neighborhood: splice v into its own sorted neighbor row
        i = 0
        while i < len(row) and row[i] < v:
            i += 1
        closed = row[:i] + (v,) + row[i:]
        leader = closed_first.setdefault(closed, v)
        if leader != v:
            union(leader, v)

    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    classes = tuple(tuple(groups[root]) for root in sorted(groups))
    type_of = [0] * n
    flags = []
    for t, members in enumerate(classes):
        for v in members:
            type_of[v] = t
        flags.append(len(members) >= 2 and graph.has_edge(members[0], members[1]))
    return TypePartition(tuple(type_of), classes, tuple(flags), len(classes))


def verify_partition(graph: Graph, partition: TypePartition) -> bool:
    """True iff every class is type-homogeneous and no two classes merge.

    Raises ``ValueError`` when the partition does not even have the right
    shape for the graph.  Since same-type is an equivalence, comparing each
    member against its class representative, and representatives pairwise,
    covers all pairs.
    """
    n = graph.n
    if len(partition.type_of) != n or partition.num_types != len(partition.classes):
        raise ValueError("partition shape does not match the graph")
    seen = [False] * n
    for t, members in enumerate(partition.classes):
        if not members:
            raise ValueError(f"class {t} is empty")
        for v in members:
            if not 0 <= v < n or seen[v] or partition.type_of[v] != t:
                raise ValueError("classes do not partition the vertex set")
            seen[v] = True
    if not all(seen):
        raise ValueError("classes do not partition the vertex set")

    for members in partition.classes:
        rep = members[0]
        for v in members[1:]:
            if not same_type(graph, rep, v):
                return False
    reps = [members[0] for members in partition.classes]
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            if same_type(graph, reps[i], reps[j]):
                return False
    return True


def build_type_graph(graph: Graph, partition: TypePartition) -> TypeGraph:
    """Build the quotient graph, verifying the all-or-nothing edge structure.

    Raises ``ValueError`` when some pair of classes is joined by only part
    of the possible edges, or a class is neither a clique nor independent;
    either signals a corrupted partition.
    """
    k = partition.num_types
    size = tuple(len(members) for members in partition.classes)
    intra = [0] * k
    cross: Counter = Counter()
    type_of = partition.type_of
    for u, v in graph.edges():
        tu, tv = type_of[u], type_of[v]
        if tu == tv:
            intra[tu] += 1
        else:
            cross[(min(tu, tv), max(tu, tv))] += 1

    for t in range(k):
        expected = size[t] * (size[t] - 1) // 2 if partition.clique_flag[t] else 0
        if intra[t] != expected:
            raise ValueError(f"class {t} is neither a clique nor independent")
    adj: list[set[int]] = [set() for _ in range(k)]
    for (a, b), count in cross.items():
        if count != size[a] * size[b]:
            raise ValueError(f"classes {a} and {b} are only partially joined")
        adj[a].add(b)
        adj[b].add(a)
    return TypeGraph(
        num_types=k,
        adj=tuple(tuple(sorted(s)) for s in adj),
        size=size,
        clique_flag=partition.clique_flag,
    )


def mask_members(mask: int) -> tuple[int, ...]:
    """The set bits of a type mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def compute_vertex_cover(graph: Graph, budget: int) -> tuple[int, ...] | None:
    """Vertex cover of size <= budget, or None when no such cover exists.

    Include/exclude branching on a highest-degree vertex: excluding a vertex
    forces all its neighbors into the cover, so every branch spends budget
    and the search tree has at most 2**budget nodes.  Degree-0 vertices are
    never picked.  Deterministic (ties break toward the lowest vertex id).
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    adj = {v: set(graph.adj[v]) for v in range(graph.n) if graph.adj[v]}
    cover = _cover_branch(adj, budget)
    return tuple(sorted(cover)) if cover is not None else None


def _cover_branch(adj: dict[int, set[int]], budget: int) -> set[int] | None:
    if not adj:
        return set()
    if budget == 0:
        return None
    v = max(adj, key=lambda u: (len(adj[u]), -u))

    taken = _without(adj, {v})
    res = _cover_branch(taken, budget - 1)
    if res is not None:
        res.add(v)
        return res

    forced = adj[v]
    if len(forced) <= budget:
        res = _cover_branch(_without(adj, forced | {v}), budget - len(forced))
        if res is not None:
            res.update(forced)
            return res
    return None


def _without(adj: dict[int, set[int]], removed: set[int]) -> dict[int, set[int]]:
    out = {}
    for u, nbrs in adj.items():
        if u in removed:
            continue
        rest = nbrs - removed
        if rest:
            out[u] = rest
    return out
