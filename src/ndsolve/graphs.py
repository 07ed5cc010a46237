"""Undirected simple graphs over contiguous 0-based vertex ids."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import filterfalse, islice
from operator import lt
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph; ``adj[v]`` is the sorted neighbor tuple of ``v``.

    Two constructors, each sorting only what it must:

    - :meth:`from_edges` checks vertex ids, rejects self-loops and duplicate
      edges, and symmetrizes the adjacency.  It gathers each vertex's
      neighbors in a list, then sorts each list in place and hands it to
      :meth:`from_neighbor_lists`, which freezes it (the list is freed
      then) and finds a repeated edge or a self-loop as a row that repeats
      a vertex.
    - :meth:`from_neighbor_lists` takes rows, one per vertex, that may still
      repeat a vertex.  It sorts only the distinct rows that are not
      strictly ascending, so rows built in order (the parser's rows for
      edges written in the serializer's order, a template's class rows, or
      sets passed through ``sorted``) are never sorted again.

    Vertices with equal open neighborhoods (independent twins) share one
    row tuple, so the rows take memory in proportion to the distinct
    neighborhoods.  Rows are values: nothing mutates them, and nothing
    compares them by identity.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if iter(edges) is edges:  # a one-shot iterator; a fault reads it twice
            edges = list(edges)
        # Gather and sort with no test per edge.  An id that Python cannot
        # index with ends the gather, and a row that repeats a vertex makes
        # from_neighbor_lists raise; an id that list indexing lets through
        # (-n..-1) leaves a row that starts below 0.  In each case the
        # checked loop reads the edges again and words the first fault.
        rows: list = [[] for _ in range(n)]
        try:
            for u, v in edges:
                rows[u].append(v)
                rows[v].append(u)
            graph = cls.from_neighbor_lists(_sorted_in_turn(rows))
        except (TypeError, ValueError, IndexError):
            pass
        else:
            if all(row[0] >= 0 for row in graph.adj if row):
                return graph
        del rows
        return cls.from_neighbor_lists(map(sorted, _checked_neighbor_sets(n, edges)))

    @classmethod
    def from_neighbor_lists(cls, neighbors: Iterable[Sequence[int]]) -> Graph:
        """Freeze neighbor rows, one per vertex, into sorted tuples.

        The caller has added each edge to both endpoints and checked ids
        (:meth:`from_edges` checks them on the frozen rows), but a row may
        still repeat a vertex.  The rows are frozen and interned as they
        are, so equal rows become one tuple (a tuple row is kept, not
        copied), and only the distinct rows are checked: a row that is not
        strictly ascending is sorted and interned again, so its sorted copy
        merges with an equal row.  A sorted row that still repeats a vertex
        (a duplicate edge or a self-loop) raises ``ValueError``.
        """
        distinct: dict[_Row, _Row] = {}
        adj = tuple(distinct.setdefault(row, row) for row in map(tuple, neighbors))
        sorted_rows: dict[int, _Row] = {}  # id of an unsorted row -> its sorted row
        for row in list(filterfalse(_ascending, distinct)):
            ordered = tuple(sorted(row))
            if not _ascending(ordered):
                raise ValueError("a neighbor row repeats a vertex")
            sorted_rows[id(row)] = distinct.setdefault(ordered, ordered)
        if sorted_rows:
            adj = tuple([sorted_rows.get(id(row), row) for row in adj])
        return cls(len(adj), adj)

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(map(len, self.adj)) // 2

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


def _checked_neighbor_sets(n: int, edges: Iterable[tuple[int, int]]) -> list[set[int]]:
    """The neighbor sets of the edges, or the first faulty edge's error."""
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
    return neighbors


def _sorted_in_turn(rows: list) -> Iterator[list[int]]:
    """Sort each row in place and yield it, dropping ``rows``' reference
    first, so each list is freed once the caller has frozen it."""
    for u, row in enumerate(rows):
        rows[u] = None
        row.sort()
        yield row


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
