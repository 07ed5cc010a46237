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

from ndsolve import Graph, TypeGraph, TypePartition
from ndsolve.generate import TypeTemplate, random_instance, random_template
from ndsolve.ilp import IlpProblem, LinearConstraint, at_most, equal


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

    Depth-first with shuffled neighbor order, so long meandering paths
    (the interesting inputs for path simplification) are common.
    """
    if g.n < 2:
        return None
    s, t = rng.sample(range(g.n), 2)
    seen = {s}
    trail = [s]

    def grow(v: int) -> bool:
        if v == t:
            return True
        nbrs = list(g.adj[v])
        rng.shuffle(nbrs)
        for w in nbrs:
            if w not in seen:
                seen.add(w)
                trail.append(w)
                if grow(w):
                    return True
                trail.pop()
                seen.remove(w)
        return False

    return trail if grow(s) else None


def all_labeled_graphs(n: int):
    """Every labeled graph on n vertices (2**C(n,2) of them)."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph.from_edges(
            n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        )


def k23_template() -> TypeTemplate:
    return TypeTemplate(sizes=(2, 3), clique=(False, False), edges=((0, 1),))
