"""Line-oriented instance file format.

A ``p graph <n>`` header comes first; ``e <u> <v>`` lines are edges with
1-based endpoints, and :data:`_DIRECTIVES` is the grammar of the annotation
lines, of which a file may hold at most one family.  ``#`` starts a comment;
a bare graph file is valid.  Vertex ids are 0-based in memory.  A header may
declare at most :data:`MAX_VERTICES` vertices, and the color budget and the
motif's total count are held to the same limit.

The text is read in slices of about :data:`_SLICE` characters.  A slice made
only of ``e``, only of ``vcolor`` or only of ``precolor`` lines, each
``<keyword> <number> <number>`` with single spaces, numbers in ASCII digits
without a leading zero, and a ``\n`` end, is a run: with the keywords
dropped and every separator made a comma it is a JSON array, read by one
``json.loads`` (JSON reads such numbers exactly as ``int`` does), and its
vertex ids map straight to the parser's id objects.  Every other slice goes
through the line loop.

This first pass keeps each vertex's neighbors as a list, in input order,
with no test for a repeated edge.  Edges written in the serializer's order
leave every row ascending, and then the graph is built without a sort;
:meth:`Graph.from_neighbor_lists` sorts the rows only if a distinct row is
out of order, and a row that then repeats a vertex marks a repeated edge or
a self-loop.  Runs word no error: if a run meets an id above n, a family or
key already taken, or a row repeats a vertex, or if any other error comes
up, the whole text is parsed again by the line loop alone, with neighbor
sets and a test per edge, and that parse words the error with its line
number.
"""

from __future__ import annotations

import json
import re
from bisect import bisect
from collections import Counter, deque
from typing import Iterator

from .graphs import Graph
from .instances import MotifInstance, PathsInstance, PrecolorInstance

Instance = Graph | MotifInstance | PathsInstance | PrecolorInstance

# Largest vertex count a header may declare.  parse_instance allocates one
# neighbor list and one id object per vertex as soon as it reads the header,
# before any edge, about 0.11 KB together (tracemalloc peak, Python 3.11).
# The first run adds a 1-based copy of the id list: a header plus 20000 edges
# at n = 2*10**5 peaks at 0.14 KB per vertex, so the cap bounds a sparse
# graph at roughly 140 MB.  A text read again to word its error holds
# neighbor sets instead, about 0.27 KB per vertex, once the first pass's
# rows are freed.
# The sum of the 'motif' counts shares the cap, as the motif is held as one
# entry per occurrence.  So does the 'colors' budget, to keep one limit on
# every count a file declares; precoloring lists at most n + #pinned colors.
MAX_VERTICES = 10**6

# Characters per slice of text split into lines at once; each slice ends
# just after a newline, so it never splits a line or a '\r\n' pair.
_SLICE = 1 << 16

# keyword -> (family, line name, usage, argument kinds).  A kind is 'v' (a
# 1-based vertex id), 'c' (a positive color) or 'n' (a positive count); all
# arguments convert before the directive's own checks run.
_DIRECTIVES = {
    "vcolor": ("motif", "vertex color", "vcolor <v> <c>", "vc"),
    "motif": ("motif", "motif", "motif <c> <count>", "cn"),
    "pair": ("paths", "pair", "pair <s> <t>", "vv"),
    "precolor": ("precolor", "precolor", "precolor <v> <c>", "vc"),
    "colors": ("precolor", "color budget", "colors <r>", "c"),
}

# A run: a slice of lines '<keyword> <u> <x>\n' with one keyword, where u is
# a vertex and x a vertex or a color, both written without a sign or a
# leading zero, so each is at least 1.
_RUN = re.compile(
    r"(e|vcolor|precolor) [1-9][0-9]* [1-9][0-9]*\n(?:\1 [1-9][0-9]* [1-9][0-9]*\n)*"
)


class ParseError(ValueError):
    """Malformed or invalid instance text; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


def _int(token: str, what: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} is not an integer: {token!r}", line) from None


def _vertex(token: str, n: int, line: int) -> int:
    v = _int(token, "vertex id", line)
    if not 1 <= v <= n:
        raise ParseError(f"vertex id out of range 1..{n}: {v}", line)
    return v - 1


def _slices(text: str) -> Iterator[str]:
    """``text`` in slices of about :data:`_SLICE` characters, each cut just
    after a newline."""
    start, end = 0, len(text)
    while start < end:
        cut = text.find("\n", start + _SLICE) + 1 or end
        yield text[start:cut]
        start = cut


class _Restart(Exception):
    """A run met input that only the line loop may judge."""


def parse_instance(text: str) -> Instance:
    """Parse instance text into a graph or an annotated problem instance."""
    try:
        return _parse(text, True)
    except (_Restart, ParseError):
        pass  # leave the handler first, so the failed pass's rows are freed
    return _parse(text, False)


def _parse(text: str, runs: bool) -> Instance:
    """Parse ``text``, taking whole slices as runs when ``runs`` is set."""
    n: int | None = None
    # allocated by the header: lists in the run pass, sets in the strict one
    neighbors: list[list[int]] | list[set[int]] | None = None
    vertex_color: dict[int, int] = {}
    motif: dict[int, int] = {}
    motif_size = 0
    pairs: list[tuple[int, int]] = []
    seen_terminals: set[int] = set()
    precolor: dict[int, int] = {}
    num_colors: int | None = None
    family: str | None = None
    one_based: list[int | None] | None = None  # one_based[v] = ids[v - 1]
    line_no = 0

    for chunk in _slices(text):
        run = runs and n is not None and _RUN.fullmatch(chunk)
        if run:
            if one_based is None:
                one_based = [None, *ids]
            keyword = run[1]
            # '<kw> 1 2\n<kw> 3 4\n' -> '[1,2,3,4\n]'
            body = chunk[len(keyword) + 1 :].replace(f"\n{keyword} ", ",")
            try:
                numbers = json.loads(f"[{body.replace(' ', ',')}]")
                keys = list(map(one_based.__getitem__, numbers[0::2]))
                values = numbers[1::2]
                if keyword == "e":
                    values = list(map(one_based.__getitem__, values))
            except (IndexError, ValueError):  # id above n; json caps digits
                raise _Restart from None
            line_no += len(keys)
            if keyword == "e":
                # v's row takes u before u's row takes v: with edges in the
                # serializer's order (u < v, ascending) every row then gets
                # its smaller neighbors first and stays ascending.  Repeated
                # edges and self-loops are left to Graph.from_neighbor_lists.
                deque(map(list.append, map(neighbors.__getitem__, values), keys), 0)
                deque(map(list.append, map(neighbors.__getitem__, keys), values), 0)
                continue
            line_family = _DIRECTIVES[keyword][0]
            family = family or line_family
            target = vertex_color if keyword == "vcolor" else precolor
            size = len(target)
            target.update(zip(keys, values))
            if family != line_family or len(target) != size + len(keys):
                raise _Restart
            continue

        for line_no, line in enumerate(chunk.splitlines(), line_no + 1):
            if "#" in line:
                line = line.split("#", 1)[0]
            tokens = line.split()
            if not tokens:
                continue
            keyword = tokens[0]

            # Edge lines are nearly all of a large file: convert both ids
            # inline, and let _vertex word the error when that fails.
            if keyword == "e" and neighbors is not None:
                if len(tokens) != 3:
                    raise ParseError("edge line must be 'e <u> <v>'", line_no)
                try:
                    u = int(tokens[1]) - 1
                    v = int(tokens[2]) - 1
                except ValueError:
                    u = v = -1
                if not (0 <= u < n and 0 <= v < n):
                    u = _vertex(tokens[1], n, line_no)
                    v = _vertex(tokens[2], n, line_no)
                if u == v:
                    raise ParseError(f"self-loop at vertex {u + 1}", line_no)
                if runs:  # Graph.from_neighbor_lists finds a repeated edge
                    neighbors[u].append(ids[v])
                    neighbors[v].append(ids[u])
                    continue
                row = neighbors[u]
                if v in row:
                    a, b = sorted((u, v))
                    raise ParseError(f"duplicate edge ({a + 1}, {b + 1})", line_no)
                row.add(ids[v])
                neighbors[v].add(ids[u])
                continue

            if keyword == "p":
                if n is not None:
                    raise ParseError("duplicate header", line_no)
                if len(tokens) != 3 or tokens[1] != "graph":
                    raise ParseError("header must be 'p graph <n>'", line_no)
                n = _int(tokens[2], "vertex count", line_no)
                if n < 0:
                    raise ParseError(f"vertex count must be nonnegative: {n}", line_no)
                if n > MAX_VERTICES:
                    raise ParseError(
                        f"vertex count exceeds the limit {MAX_VERTICES}: {n}", line_no
                    )
                if runs:
                    neighbors = [[] for _ in range(n)]
                else:
                    neighbors = [set() for _ in range(n)]
                ids = list(range(n))  # one int object per vertex for every row
                continue
            if n is None:
                raise ParseError("'p graph <n>' header must come first", line_no)

            spec = _DIRECTIVES.get(keyword)
            if spec is None:
                raise ParseError(f"unknown directive {keyword!r}", line_no)
            line_family, name, usage, kinds = spec
            if family is None:
                family = line_family
            elif family != line_family:
                raise ParseError(
                    f"'{keyword}' mixes annotation families ({line_family} after {family})",
                    line_no,
                )
            if len(tokens) != len(kinds) + 1:
                raise ParseError(f"{name} line must be '{usage}'", line_no)
            # Convert in place, inline as for edges; _vertex and _int word errors.
            i = 0
            for kind in kinds:
                i += 1
                try:
                    x = int(tokens[i])
                except ValueError:
                    x = 0
                if kind == "v":
                    x = x - 1 if 1 <= x <= n else _vertex(tokens[i], n, line_no)
                elif x < 1:
                    _int(tokens[i], "color" if kind == "c" else "count", line_no)
                    what = "color" if kind == "c" else "motif count"
                    raise ParseError(f"{what} must be positive: {x}", line_no)
                tokens[i] = x

            if keyword == "vcolor":
                _, v, c = tokens
                if v in vertex_color:
                    raise ParseError(f"duplicate color for vertex {v + 1}", line_no)
                vertex_color[v] = c
            elif keyword == "motif":
                _, c, count = tokens
                if c in motif:
                    raise ParseError(f"duplicate motif entry for color {c}", line_no)
                motif_size += count
                if motif_size > MAX_VERTICES:
                    raise ParseError(
                        f"motif size exceeds the limit {MAX_VERTICES}: {motif_size}",
                        line_no,
                    )
                motif[c] = count
            elif keyword == "pair":
                _, s, t = tokens
                if s == t:
                    raise ParseError(f"terminal pair repeats vertex {s + 1}", line_no)
                if s in seen_terminals or t in seen_terminals:
                    raise ParseError("terminal vertex appears in two pairs", line_no)
                seen_terminals.update((s, t))
                pairs.append((s, t))
            elif keyword == "precolor":
                _, v, c = tokens
                if v in precolor:
                    raise ParseError(f"duplicate precolor for vertex {v + 1}", line_no)
                precolor[v] = c
            else:  # colors
                if num_colors is not None:
                    raise ParseError("duplicate 'colors' line", line_no)
                num_colors = tokens[1]
                if num_colors > MAX_VERTICES:
                    raise ParseError(
                        f"color budget exceeds the limit {MAX_VERTICES}: {num_colors}",
                        line_no,
                    )

    if n is None:
        raise ParseError("missing 'p graph <n>' header")
    if runs:
        try:
            graph = Graph.from_neighbor_lists(neighbors)
        except ValueError:  # a repeated edge or a self-loop
            raise _Restart from None
    else:
        graph = Graph.from_neighbor_sets(neighbors)

    try:
        if family is None:
            return graph
        if family == "motif":
            if len(vertex_color) != n:
                missing = next(v for v in range(n) if v not in vertex_color)
                raise ParseError(f"vertex {missing + 1} has no color")
            if not motif:
                raise ParseError("motif annotations need at least one 'motif' line")
            colors = tuple(map(vertex_color.__getitem__, range(n)))
            bag = tuple(c for c, count in sorted(motif.items()) for _ in range(count))
            return MotifInstance(graph, colors, bag)
        if family == "paths":
            return PathsInstance(graph, tuple(pairs))
        if num_colors is None:
            raise ParseError("precolor annotations need a 'colors <r>' line")
        for v, c in precolor.items():
            if c > num_colors:
                raise ParseError(
                    f"precolor {c} of vertex {v + 1} exceeds budget {num_colors}"
                )
        return PrecolorInstance(graph, precolor, num_colors)
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def serialize_instance(instance: Instance) -> str:
    """Serialize an instance so that parsing the text reproduces it.

    The text is written row by row.  Vertex u's edge lines come from the
    upper half of its adjacency row, the neighbors above u found by
    bisection, as one string per row; the annotation lines follow as one
    string.  So no step holds an object per edge, and the edges come out
    in ascending order, the order in which the parser sorts no row.

    A :class:`PathsInstance` with no pairs is written as its bare graph,
    which :func:`parse_instance` returns as a :class:`Graph`; the CLI and
    the benchmark read that as 0 pairs.
    """
    graph = instance if isinstance(instance, Graph) else instance.graph
    pieces = [f"p graph {graph.n}"]  # every later piece starts with a newline
    for u, row in enumerate(graph.adj):
        upper = row[bisect(row, u) :]
        if upper:
            sep = f"\ne {u + 1} "
            pieces.append(sep + sep.join([str(v + 1) for v in upper]))

    lines: list[str] = []
    if isinstance(instance, MotifInstance):
        lines += [f"\nvcolor {v} {c}" for v, c in enumerate(instance.vertex_color, 1)]
        lines += [
            f"\nmotif {c} {count}" for c, count in sorted(Counter(instance.motif).items())
        ]
    elif isinstance(instance, PathsInstance):
        lines += [f"\npair {s + 1} {t + 1}" for s, t in instance.pairs]
    elif isinstance(instance, PrecolorInstance):
        lines.append(f"\ncolors {instance.num_colors}")
        lines += [f"\nprecolor {v + 1} {c}" for v, c in sorted(instance.precolor.items())]
    elif not isinstance(instance, Graph):
        raise TypeError(f"cannot serialize {type(instance).__name__}")
    pieces.append("".join(lines))
    pieces.append("\n")
    return "".join(pieces)
