"""Shared independent oracles and small builders for the test suite.

Everything here is deliberately written from first principles (set
comparisons, subset enumeration, grid enumeration) so the library is
checked against code that shares none of its machinery.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

import numpy as np

from ndsolve import (
    Graph,
    MotifInstance,
    PathsInstance,
    PrecolorInstance,
    TypeGraph,
    TypePartition,
    build_type_graph,
    compute_type_partition,
)
from ndsolve.generate import (
    TypeTemplate,
    generate_from_template,
    random_instance,
    random_template,
)
from ndsolve.ilp import IlpProblem, LinearConstraint, at_most, equal
from ndsolve.io import _DIRECTIVES, MAX_VERTICES, ParseError, _int, _vertex
from ndsolve.motif import color_tables, connected_type_sets, skeleton_exists


def literal_same_type(g: Graph, u: int, v: int) -> bool:
    """Membership test written straight from the defining set equation."""
    return (set(g.adj[u]) - {v}) == (set(g.adj[v]) - {u})


def brute_min_type_partition(g: Graph) -> int:
    """Minimum class count over all partitions whose classes are
    type-homogeneous, by exhaustive assignment with a best-so-far bound."""
    n = g.n
    best = [n if n else 0]

    def rec(v: int, classes: list[list[int]]) -> None:
        if len(classes) >= best[0]:
            return
        if v == n:
            best[0] = min(best[0], len(classes))
            return
        for cls in classes:
            if all(literal_same_type(g, v, u) for u in cls):
                cls.append(v)
                rec(v + 1, classes)
                cls.pop()
        classes.append([v])
        rec(v + 1, classes)
        classes.pop()

    if n:
        rec(0, [])
    return best[0]


def reference_type_graph(g: Graph, partition: TypePartition) -> TypeGraph:
    """Quotient graph from a count of every edge, with all-or-nothing checks.

    Each class must hold all or none of its internal edges (as its clique
    flag says), and each class pair all or none of the edges between them;
    otherwise ``ValueError``.  O(m), against the library's representative
    rows.
    """
    k = partition.num_types
    size = tuple(len(members) for members in partition.classes)
    intra = [0] * k
    cross: Counter = Counter()
    type_of = partition.type_of
    for u, v in g.edges():
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


def exhaustive_max_matching(num_left: int, num_right: int, edges) -> int:
    """Maximum matching size by exponential assignment over right subsets."""
    adj = [[] for _ in range(num_left)]
    for u, v in edges:
        adj[u].append(v)
    seen: dict[tuple[int, int], int] = {}

    def best(i: int, used: int) -> int:
        if i == num_left:
            return 0
        key = (i, used)
        if key in seen:
            return seen[key]
        top = best(i + 1, used)
        for v in adj[i]:
            if not used >> v & 1:
                top = max(top, 1 + best(i + 1, used | 1 << v))
        seen[key] = top
        return top

    return best(0, 0)


def dense_coeffs(con: LinearConstraint, num_vars: int) -> tuple[int, ...]:
    """The full coefficient vector of a constraint's sparse terms."""
    coeffs = [0] * num_vars
    for j, c in con.terms:
        coeffs[j] = c
    return tuple(coeffs)


def grid_feasible(problem: IlpProblem) -> tuple[int, ...] | None:
    """First satisfying point of the full bound grid, vectorized."""
    if problem.num_vars == 0:
        ok = all(
            (con.rhs == 0 if con.relation == "=" else con.rhs >= 0)
            for con in problem.constraints
        )
        return () if ok else None
    axes = [
        np.arange(lo, up + 1) for lo, up in zip(problem.lower, problem.upper)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    keep = np.ones(len(points), dtype=bool)
    for con in problem.constraints:
        total = points @ np.asarray(dense_coeffs(con, problem.num_vars))
        keep &= (total == con.rhs) if con.relation == "=" else (total <= con.rhs)
    idx = np.flatnonzero(keep)
    return tuple(int(x) for x in points[idx[0]]) if len(idx) else None


def grid_count(problem: IlpProblem) -> int:
    """Number of satisfying grid points (for propagation-safety checks)."""
    if problem.num_vars == 0:
        return 1 if grid_feasible(problem) is not None else 0
    axes = [
        np.arange(lo, up + 1) for lo, up in zip(problem.lower, problem.upper)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    keep = np.ones(len(points), dtype=bool)
    for con in problem.constraints:
        total = points @ np.asarray(dense_coeffs(con, problem.num_vars))
        keep &= (total == con.rhs) if con.relation == "=" else (total <= con.rhs)
    return int(keep.sum())


def random_ilp(rng: random.Random, max_vars: int = 8, max_bound: int = 6) -> IlpProblem:
    """Random bounded system with a mix of equalities and inequalities,
    sized so the full grid stays enumerable."""
    while True:
        num_vars = rng.randint(1, max_vars)
        upper = tuple(rng.randint(0, max_bound) for _ in range(num_vars))
        space = 1
        for up in upper:
            space *= up + 1
        if space <= 200_000:
            break
    num_cons = rng.randint(1, 2 * num_vars)
    constraints = []
    for _ in range(num_cons):
        coeffs = tuple(rng.randint(-3, 3) for _ in range(num_vars))
        relation = "=" if rng.random() < 0.4 else "<="
        rhs = rng.randint(-6, 2 * max_bound)
        constraints.append((equal if relation == "=" else at_most)(coeffs, rhs))
    return IlpProblem(num_vars, (0,) * num_vars, upper, tuple(constraints))


def small_sweep_instance(problem: str, rng: random.Random, max_n: int = 12):
    """Random desk-scale instance with class count <= 4, mixed parameters."""
    k = rng.randint(1, 4)
    n = rng.randint(max(k, 2), max_n)
    template = random_template(
        k, n, rng.getrandbits(32), edge_prob=rng.random(), clique_prob=rng.random()
    )
    if problem == "motif":
        return random_instance(
            problem,
            template,
            rng.getrandbits(32),
            colors=rng.randint(1, 6),
            motif_size=rng.randint(1, min(6, n)),
        )
    if problem == "paths":
        return random_instance(
            problem,
            template,
            rng.getrandbits(32),
            num_pairs=rng.randint(0, min(3, n // 2)),
        )
    return random_instance(
        problem,
        template,
        rng.getrandbits(32),
        num_colors=rng.randint(1, 6),
        precolor_fraction=rng.random() * 0.6,
    )


def reference_motif_witness(inst: MotifInstance) -> tuple[int, ...] | None:
    """The motif witness by a per-set Counter pool test and a vertex-order
    extension.

    Grows from every motif-colored root in ascending order, with no ball
    test, and takes the first set in ``connected_type_sets`` order that is
    not a lone independent type (for a motif of two or more), whose Counter
    of member colors covers the motif and which has a skeleton; then scans
    the set's types in id order and their members in id order, adding each
    vertex whose color the motif still needs.  None when no set qualifies.
    """
    partition = compute_type_partition(inst.graph)
    type_graph = build_type_graph(inst.graph, partition)
    tables = color_tables(inst, partition)
    want = inst.motif_counts()
    colors = [[inst.vertex_color[v] for v in members] for members in partition.classes]
    colored = [t for t, row in enumerate(colors) if set(row) & set(want)]
    colored_mask = sum(1 << t for t in colored)
    size = len(inst.motif)
    grown = (
        types
        for root in colored
        for types in connected_type_sets(type_graph, root, colored_mask, size)
    )
    for types in grown:
        if len(types) == 1 and size > 1 and not partition.clique_flag[types[0]]:
            continue
        pool = Counter(c for t in types for c in colors[t])
        if any(pool[c] < count for c, count in want.items()):
            continue
        chosen = skeleton_exists(inst, tables, types)
        if chosen is None:
            continue
        need = inst.motif_counts()
        need.subtract(inst.vertex_color[v] for v in chosen.values())
        picked = set(chosen.values())
        for t in types:
            for v in partition.classes[t]:
                color = inst.vertex_color[v]
                if v not in picked and need[color] > 0:
                    need[color] -= 1
                    picked.add(v)
        return tuple(sorted(picked))
    return None


def far_color_motif(k: int, hops: int) -> MotifInstance:
    """The far-color motif probe: the motif (1, ..., 7) on a graph whose only
    color-7 vertex is ``hops`` steps from the rest.

    A template graph of ``k`` classes on 2k vertices takes colors 1-6 from
    ``Random(0)`` in vertex order.  A path of ``hops`` new vertices hangs
    from vertex 0; its last vertex has color 7 and the others color 1.
    """
    graph = generate_from_template(random_template(k, 2 * k, 0, edge_prob=0.15), 0)
    rng = random.Random(0)
    n = graph.n
    colors = [rng.randint(1, 6) for _ in range(n)] + [1] * (hops - 1) + [7]
    path = [0, *range(n, n + hops)]
    graph = Graph.from_edges(n + hops, [*graph.edges(), *zip(path, path[1:])])
    return MotifInstance(graph, tuple(colors), tuple(range(1, 8)))


def reference_reduced_instance(
    instance: PrecolorInstance, partition: TypePartition, frozen: frozenset[int]
) -> PrecolorInstance:
    """The smaller instance the independent-type reduction stands for,
    built vertex by vertex.

    Each frozen class's open vertices are pinned to the class's lowest
    pinned color, and each unpinned independent class is cut to its lowest
    vertex; clique classes stay whole.  ``frozen`` must be exactly the
    independent classes with a pinned vertex, else ``AssertionError``.
    """
    precolor = dict(instance.precolor)
    keep = []
    for t, members in enumerate(partition.classes):
        pins = [instance.precolor[v] for v in members if v in instance.precolor]
        independent = not partition.clique_flag[t]
        assert (t in frozen) == (independent and bool(pins)), f"class {t}"
        if t in frozen:
            for v in members:
                precolor.setdefault(v, min(pins))
        keep.extend(members[:1] if independent and not pins else members)
    keep.sort()
    new_id = {v: i for i, v in enumerate(keep)}
    edges = [
        (new_id[u], new_id[v])
        for u, v in instance.graph.edges()
        if u in new_id and v in new_id
    ]
    return PrecolorInstance(
        Graph.from_edges(len(keep), edges),
        {new_id[v]: c for v, c in precolor.items() if v in new_id},
        instance.num_colors,
    )


def random_labeled_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def random_simple_walk(rng: random.Random, g: Graph) -> list[int] | None:
    """Some path between two random distinct vertices, or None.

    Depth-first, each step to a random untried neighbor, so long
    meandering paths (the interesting inputs for path simplification) are
    common.  The search keeps its marks when it backtracks, so it enters
    each vertex once and stays O(n + m) even when no path exists.
    """
    if g.n < 2:
        return None
    s, t = rng.sample(range(g.n), 2)
    seen = {s}
    trail = [s]
    untried = [list(g.adj[s])]
    while trail[-1] != t:
        nbrs = untried[-1]
        if not nbrs:
            trail.pop()
            untried.pop()
            if not trail:
                return None
            continue
        i = rng.randrange(len(nbrs))
        nbrs[i], nbrs[-1] = nbrs[-1], nbrs[i]
        w = nbrs.pop()
        if w not in seen:
            seen.add(w)
            trail.append(w)
            untried.append(list(g.adj[w]))
    return trail


def all_labeled_graphs(n: int):
    """Every labeled graph on n vertices (2**C(n,2) of them)."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph.from_edges(
            n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        )


def k23_template() -> TypeTemplate:
    return TypeTemplate(sizes=(2, 3), clique=(False, False), edges=((0, 1),))


def reference_parse_instance(text: str):
    """The parser as it was before it walked the text in slices: one
    ``splitlines()`` of the whole text, and each edge end stored as parsed.
    Kept verbatim as the reference for the differential parser test, except
    that it freezes and interns its sorted rows itself."""
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
    rows, distinct = map(tuple, map(sorted, neighbors)), {}
    graph = Graph(n, tuple(distinct.setdefault(row, row) for row in rows))

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


def star_plus_path_edges(n: int) -> list[tuple[int, int]]:
    """A star around vertex 0 plus a path through the leaves, so vertex 0
    has degree n - 1."""
    return [(0, v) for v in range(1, n)] + [(v, v + 1) for v in range(1, n - 1)]


def reference_from_edges(n: int, edges) -> Graph:
    """``Graph.from_edges`` as it was before it gathered rows in lists: one
    neighbor set per vertex and a test per edge.  Kept verbatim as the
    reference for the differential and memory tests, except that it freezes
    and interns its sorted rows itself."""
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
    rows, distinct = map(tuple, map(sorted, neighbors)), {}
    return Graph(n, tuple(distinct.setdefault(row, row) for row in rows))


def reference_serialize_instance(instance) -> str:
    """The serializer as it was before it wrote the text row by row: one
    line string per edge from ``Graph.edges()``.  Kept verbatim as the
    reference for the differential and memory tests."""
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


def reference_generate_from_template(template: TypeTemplate, seed: int) -> Graph:
    """``generate_from_template`` as it was before it built rows from the
    classes: one ``(u, v)`` tuple per edge through ``Graph.from_edges``.
    Kept verbatim as the reference for the differential generator test."""
    n = template.num_vertices
    rng = random.Random(seed)
    ids = list(range(n))
    rng.shuffle(ids)

    blocks: list[list[int]] = []
    offset = 0
    for size in template.sizes:
        blocks.append(ids[offset : offset + size])
        offset += size

    edges: list[tuple[int, int]] = []
    for t, block in enumerate(blocks):
        if template.clique[t]:
            edges.extend(
                (block[i], block[j])
                for i in range(len(block))
                for j in range(i + 1, len(block))
            )
    for a, b in template.edges:
        edges.extend((u, v) for u in blocks[a] for v in blocks[b])
    return Graph.from_edges(n, edges)


def reference_simplify_path(
    graph: Graph, partition: TypePartition, path
) -> tuple[int, ...]:
    """``simplify_path`` as it was before it ran in one pass: rebuild a
    Counter of internal types after every shortcut and cut the first
    repeated type from its first to its last internal occurrence.  Kept
    verbatim as the reference for the differential simplification test."""
    verts = list(path)
    if len(set(verts)) != len(verts):
        raise ValueError("input path repeats a vertex")
    for u, v in zip(verts, verts[1:]):
        if not graph.has_edge(u, v):
            raise ValueError(f"input path uses the missing edge ({u}, {v})")
    type_of = partition.type_of
    while True:
        internal_count = Counter(type_of[v] for v in verts[1:-1])
        offender = next(
            (
                type_of[v]
                for v in verts[1:-1]
                if internal_count[type_of[v]] >= 2
            ),
            None,
        )
        if offender is None:
            return tuple(verts)
        hits = [
            i for i in range(1, len(verts) - 1) if type_of[verts[i]] == offender
        ]
        x, y = hits[0], hits[-1]
        z = y + 1
        assert x < y and graph.has_edge(verts[x], verts[z])
        verts = verts[: x + 1] + verts[z:]


def rows_connected(type_graph: TypeGraph, types: tuple[int, ...]) -> bool:
    """Whether ``types`` induce a connected piece of the type graph: a plain
    search over the ``adj`` rows, independent of the adjacency masks."""
    inside = set(types)
    seen = {types[0]}
    todo = [types[0]]
    while todo:
        for u in type_graph.adj[todo.pop()]:
            if u in inside and u not in seen:
                seen.add(u)
                todo.append(u)
    return seen == inside


def reference_minimal_chains(type_graph: TypeGraph, s_type: int, t_type: int):
    """``minimal_chains`` as it was before it walked adjacency masks: a
    per-type counter ``near[x]`` of the chain members before the last that
    neighbour ``x``, raised and lowered over a whole ``adj`` row at every
    push and pop.  Kept as the reference for the differential chain
    test."""
    linked = type_graph.linked
    if linked(s_type, t_type):
        yield ()
        return
    adj = type_graph.adj
    near = [0] * type_graph.num_types
    near[s_type] = 1
    path = [s_type]
    stack = [iter(adj[s_type])]  # stack[i] walks the neighbours of path[i]
    while stack:
        for x in stack[-1]:
            if near[x]:
                continue
            if linked(x, t_type):
                yield tuple(path[1:]) + (x,)
            else:
                for w in adj[path[-1]]:
                    near[w] += 1
                path.append(x)
                stack.append(iter(adj[x]))
                break
        else:
            stack.pop()
            path.pop()
            if path:
                for w in adj[path[-1]]:
                    near[w] -= 1
