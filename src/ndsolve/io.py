"""Line-oriented instance file format.

A ``p graph <n>`` header comes first; ``e <u> <v>`` lines are edges with
1-based endpoints, and :data:`_DIRECTIVES` is the grammar of the annotation
lines, of which a file may hold at most one family.  ``#`` starts a comment;
a bare graph file is valid.  Vertex ids are 0-based in memory.  A header may
declare at most :data:`MAX_VERTICES` vertices, and the color budget and the
motif's total count are held to the same limit.
"""

from __future__ import annotations

from collections import Counter

from .graphs import Graph
from .instances import MotifInstance, PathsInstance, PrecolorInstance

Instance = Graph | MotifInstance | PathsInstance | PrecolorInstance

# Largest vertex count a header may declare.  parse_instance allocates one
# neighbor set per vertex as soon as it reads the header, before any edge,
# about 0.24 KB each, so the cap bounds an edgeless graph at roughly 240 MB.
# The 'colors' budget and the sum of the 'motif' counts share the cap: the
# solvers list every budget color and every motif occurrence.
MAX_VERTICES = 10**6

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


def parse_instance(text: str) -> Instance:
    """Parse instance text into a graph or an annotated problem instance."""
    n: int | None = None
    neighbors: list[set[int]] | None = None  # allocated by the header
    vertex_color: dict[int, int] = {}
    motif: dict[int, int] = {}
    motif_size = 0
    pairs: list[tuple[int, int]] = []
    seen_terminals: set[int] = set()
    precolor: dict[int, int] = {}
    num_colors: int | None = None
    family: str | None = None

    for line_no, line in enumerate(text.splitlines(), start=1):
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
            row = neighbors[u]
            if v in row:
                a, b = sorted((u, v))
                raise ParseError(f"duplicate edge ({a + 1}, {b + 1})", line_no)
            row.add(v)
            neighbors[v].add(u)
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
            neighbors = [set() for _ in range(n)]
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
    graph = Graph.from_neighbor_sets(neighbors)

    try:
        if family is None:
            return graph
        if family == "motif":
            missing = [v for v in range(n) if v not in vertex_color]
            if missing:
                raise ParseError(f"vertex {missing[0] + 1} has no color")
            if not motif:
                raise ParseError("motif annotations need at least one 'motif' line")
            colors = tuple(vertex_color[v] for v in range(n))
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
    """Serialize an instance so that parsing the text reproduces it."""
    graph = instance if isinstance(instance, Graph) else instance.graph
    lines = [f"p graph {graph.n}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in graph.edges())

    if isinstance(instance, MotifInstance):
        lines.extend(
            f"vcolor {v + 1} {c}" for v, c in enumerate(instance.vertex_color)
        )
        lines.extend(
            f"motif {c} {count}" for c, count in sorted(Counter(instance.motif).items())
        )
    elif isinstance(instance, PathsInstance):
        lines.extend(f"pair {s + 1} {t + 1}" for s, t in instance.pairs)
    elif isinstance(instance, PrecolorInstance):
        lines.append(f"colors {instance.num_colors}")
        lines.extend(
            f"precolor {v + 1} {c}" for v, c in sorted(instance.precolor.items())
        )
    elif not isinstance(instance, Graph):
        raise TypeError(f"cannot serialize {type(instance).__name__}")
    return "\n".join(lines) + "\n"
