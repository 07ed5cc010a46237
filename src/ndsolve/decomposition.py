"""Neighborhood-type partitions, the quotient type graph, and a small
branching vertex-cover search.

Two vertices are non-adjacent twins when their open neighborhoods coincide
and adjacent twins when their closed neighborhoods coincide; "same type"
is the union of the two relations.  Same-type is an equivalence relation,
each of its classes is a clique or an independent set, and between any two
classes there are either all possible edges or none.  Because the relation
is an equivalence, grouping vertices by their canonical neighborhoods
yields the coarsest type-respecting partition directly, with no merge pass:
:func:`compute_type_partition` looks up the sorted open, then closed,
neighborhood of each vertex among those of the class representatives seen
so far and opens a new class when neither matches, in one scan, in time
linear in the adjacency size.  :func:`build_type_graph` then reads the
quotient from one representative row per class.

The number of classes is the neighborhood diversity of the graph.  A graph
with a vertex cover of size ``c`` has at most ``2**c + c`` classes, which
:func:`compute_vertex_cover` lets tests check on random inputs.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .graphs import Graph


@dataclass(frozen=True)
class TypePartition:
    """Coarsest partition of the vertices into same-type classes.

    Classes are numbered in order of their smallest member, so repeated runs
    produce identical output.  Singleton classes carry ``clique_flag`` False.
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
    Bit u of ``masks[t]``, built on first read, is set iff types t and u
    are adjacent.  Mask t is as wide as t's highest neighbour, so
    :meth:`has_edge`, :meth:`linked` and :meth:`edges` read the rows, and
    ``ndsolve nd`` or a paths instance whose ends link never builds them.
    """

    num_types: int
    adj: tuple[tuple[int, ...], ...]
    size: tuple[int, ...]
    clique_flag: tuple[bool, ...]

    @cached_property
    def masks(self) -> tuple[int, ...]:
        return tuple(sum(1 << u for u in row) for row in self.adj)

    def has_edge(self, a: int, b: int) -> bool:
        return b in self.adj[a]

    def linked(self, a: int, b: int) -> bool:
        """Adjacent types, or one clique type seen from itself."""
        if a == b:
            return self.clique_flag[a]
        return self.has_edge(a, b)

    def component(self, root: int, within: int, radius: int) -> int:
        """Mask of ``root`` and the types it reaches through types of
        ``within`` in at most ``radius`` steps, one distance layer per step;
        a radius of ``within``'s type count reaches its whole component.
        """
        seen = layer = 1 << root
        for _ in range(radius):
            grown = 0
            while layer:
                low = layer & -layer
                grown |= self.masks[low.bit_length() - 1]
                layer ^= low
            layer = grown & within & ~seen
            if not layer:
                break
            seen |= layer
        return seen

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
    adj = graph.adj
    # open and closed neighborhood of each class's first member -> class id;
    # any later member of the class matches one of the two
    open_type: dict[tuple[int, ...], int] = {}
    closed_type: dict[tuple[int, ...], int] = {}
    members: list[list[int]] = []
    type_of = [0] * n
    for v in range(n):
        row = adj[v]
        t = open_type.get(row)
        if t is None:
            i = bisect_left(row, v)
            closed = row[:i] + (v,) + row[i:]
            t = closed_type.get(closed)
            if t is None:
                t = len(members)
                members.append([])
                open_type[row] = t
                closed_type[closed] = t
        members[t].append(v)
        type_of[v] = t
    classes = tuple(map(tuple, members))
    flags = [len(c) >= 2 and graph.has_edge(c[0], c[1]) for c in classes]
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
    """Build the quotient graph from one representative row per class.

    A class's first member sees every other class either completely or not
    at all, so counting its neighbors by type gives that class's quotient
    row in O(deg) time, O(m) over all classes.  Raises ``ValueError`` when
    a representative sees only part of a class (part of its own class other
    than itself, for a clique class, or any of it for an independent one),
    or when the rows read this way are not symmetric; either signals a
    corrupted partition.  Only the representatives are read, so a partition
    that comes from outside needs :func:`verify_partition` as the full check.
    """
    k = partition.num_types
    size = tuple(len(members) for members in partition.classes)
    type_of = partition.type_of
    adj: list[set[int]] = []
    for t, members in enumerate(partition.classes):
        if not members:
            raise ValueError(f"class {t} is empty")
        seen = Counter(map(type_of.__getitem__, graph.adj[members[0]]))
        own = size[t] - 1 if partition.clique_flag[t] else 0
        if seen.pop(t, 0) != own:
            raise ValueError(f"class {t} is neither a clique nor independent")
        for b, count in seen.items():
            if count != size[b]:
                raise ValueError(
                    f"classes {min(t, b)} and {max(t, b)} are only partially joined"
                )
        adj.append(set(seen))
    if any(a not in adj[b] for a in range(k) for b in adj[a]):
        raise ValueError("representative rows are not symmetric")
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
    The branches wait on an explicit stack, so a large budget cannot hit
    the recursion limit.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    adj = {v: set(graph.adj[v]) for v in range(graph.n) if graph.adj[v]}
    # ``adj`` is the graph left on the current branch and is edited in
    # place; ``removed`` logs each vertex put in the cover on that branch
    # with its neighbors at the time, so it also holds the cover.  Pending
    # branches, the next one on top: (log length at the parent, the
    # vertices the branch puts in the cover, budget left after them)
    removed: list[tuple[int, set[int]]] = []
    stack = [(0, (), budget)]
    while stack:
        mark, picked, left = stack.pop()
        while len(removed) > mark:
            u, nbrs = removed.pop()
            adj[u] = nbrs
            for w in nbrs:
                adj.setdefault(w, set()).add(u)
        for u in picked:
            nbrs = adj.pop(u)
            removed.append((u, nbrs))
            for w in nbrs:
                adj[w].remove(u)
                if not adj[w]:
                    del adj[w]
        if not adj:
            return tuple(sorted(u for u, _ in removed))
        if left == 0:
            continue
        v = max(adj, key=lambda u: (len(adj[u]), -u))
        # excluding v forces its neighbors in, which also isolates v
        if len(adj[v]) <= left:
            stack.append((len(removed), tuple(adj[v]), left - len(adj[v])))
        stack.append((len(removed), (v,), left - 1))
    return None
