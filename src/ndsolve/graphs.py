"""Undirected simple graphs over contiguous 0-based vertex ids."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from operator import lt
from typing import Collection, Iterable, Iterator, Sequence


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph; ``adj[v]`` is the sorted neighbor tuple of ``v``.

    Build through :meth:`from_edges`, which checks vertex ids, rejects
    self-loops and duplicate edges, and symmetrizes the adjacency; through
    :meth:`from_neighbor_sets` from rows that are already checked; or
    through :meth:`from_neighbor_lists` from rows that may still repeat a
    vertex.  The first two sort every row.  :meth:`from_neighbor_lists`
    skips the sort when every distinct row is already strictly ascending,
    as the parser's rows are for edges written in the serializer's order.
    Vertices with equal open neighborhoods (independent twins) share one
    row tuple, so the rows take memory in proportion to the distinct
    neighborhoods.  Rows are
    values: nothing mutates them, and nothing compares them by identity.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        neighbors: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"vertex id out of range in edge ({u}, {v})")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if v in neighbors[u]:
                raise ValueError(f"duplicate edge ({min(u, v)}, {max(u, v)})")
            neighbors[u].add(v)
            neighbors[v].add(u)
        return cls.from_neighbor_sets(neighbors)

    @classmethod
    def from_neighbor_sets(cls, neighbors: Iterable[Iterable[int]]) -> Graph:
        """Freeze neighbor rows, one per vertex, into sorted tuples.

        The rows are taken as they are: the caller has already checked ids,
        self-loops and duplicates and added each edge to both endpoints.
        Equal rows are interned, so twins share one tuple.
        """
        adj, _ = _interned(map(tuple, map(sorted, neighbors)))
        return cls(len(adj), adj)

    @classmethod
    def from_neighbor_lists(cls, neighbors: Sequence[Sequence[int]]) -> Graph:
        """Freeze neighbor lists, one per vertex, into sorted tuples.

        The caller has checked ids and added each edge to both endpoints,
        but a list may still repeat a vertex.  The lists are frozen and
        interned as they are, and only the distinct rows are checked: if
        each is strictly ascending, no row is sorted.  Otherwise every list
        is sorted and interned again, and a distinct row that still repeats
        a vertex (a duplicate edge or a self-loop) raises ``ValueError``.
        """
        adj, distinct = _interned(map(tuple, neighbors))
        if not all(map(_ascending, distinct)):
            adj, distinct = _interned(map(tuple, map(sorted, neighbors)))
            if not all(map(_ascending, distinct)):
                raise ValueError("a neighbor row repeats a vertex")
        return cls(len(adj), adj)

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(len(row) for row in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        row = self.adj[u]
        i = bisect_left(row, v)
        return i < len(row) and row[i] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)


_Row = tuple[int, ...]


def _interned(rows: Iterable[_Row]) -> tuple[tuple[_Row, ...], Collection[_Row]]:
    """The rows as one tuple in which equal rows are one object, and the
    distinct rows."""
    distinct: dict[_Row, _Row] = {}
    return tuple(distinct.setdefault(row, row) for row in rows), distinct


def _ascending(row: _Row) -> bool:
    """True iff ``row`` is strictly ascending, so it repeats no vertex."""
    return all(map(lt, row, islice(row, 1, None)))


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(u, a + v) for u in range(a) for v in range(b)])
