import random

import pytest

from ndsolve import (
    Graph,
    MotifInstance,
    PathsInstance,
    PrecolorInstance,
    complete_bipartite,
    complete_graph,
    parse_instance,
    path_graph,
    serialize_instance,
)
from ndsolve.generate import generate_from_template, random_template
from helpers import reference_from_edges


def test_from_edges_builds_sorted_symmetric_adjacency():
    g = Graph.from_edges(4, [(2, 0), (0, 1), (3, 1)])
    assert g.adj == ((1, 2), (0, 3), (0,), (1,))
    assert g.m == 3
    assert g.has_edge(0, 2) and g.has_edge(2, 0)
    assert not g.has_edge(2, 3)
    assert list(g.edges()) == [(0, 1), (0, 2), (1, 3)]


def test_independent_twins_share_one_row_from_edges():
    g = complete_bipartite(2, 3)
    assert g.adj[0] is g.adj[1]
    assert g.adj[2] is g.adj[3] is g.adj[4]
    assert g.adj[0] is not g.adj[2]
    # twins in a clique differ in their open neighborhoods
    assert complete_graph(3).adj == ((1, 2), (0, 2), (0, 1))


def test_from_neighbor_lists_sorts_only_when_a_row_needs_it():
    # rows in ascending order are kept as they are, equal ones interned
    g = Graph.from_neighbor_lists([[2, 3], [2, 3], [0, 1], [0, 1]])
    assert g.adj == ((2, 3), (2, 3), (0, 1), (0, 1))
    assert g.adj[0] is g.adj[1] and g.adj[2] is g.adj[3]
    # only the unsorted rows are sorted, and each sorted copy merges with
    # its equal row, so the twins still share one
    g = Graph.from_neighbor_lists([[2, 3], [3, 2], [0, 1], [1, 0]])
    assert g.adj == ((2, 3), (2, 3), (0, 1), (0, 1))
    assert g.adj[0] is g.adj[1] and g.adj[2] is g.adj[3]
    # any iterable of rows will do, and a tuple row is kept, not copied
    row = (1, 2)
    g = Graph.from_neighbor_lists(iter([row, (0,), [0]]))
    assert g.adj == ((1, 2), (0,), (0,)) and g.adj[0] is row
    assert g.adj[1] is g.adj[2]
    # a repeated vertex is a self-loop or a duplicate edge, sorted or not
    for rows in ([[0, 0]], [[1, 1], [0, 0]], [[1, 2, 1], [0, 0], [0]]):
        with pytest.raises(ValueError, match="repeats a vertex"):
            Graph.from_neighbor_lists(rows)


def test_parsed_graph_equals_the_graph_from_edges():
    rng = random.Random(41)
    for trial in range(60):
        if trial % 2:
            template = random_template(rng.randint(1, 8), rng.randint(8, 60), trial)
            g = generate_from_template(template, trial)
        else:  # a few span several slices of the parser, so runs come in
            n = rng.randint(2, 5000 if trial % 10 == 0 else 40)
            edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(3 * n)}
            g = Graph.from_edges(n, edges)
        parsed = parse_instance(serialize_instance(g))
        assert parsed.adj == g.adj
        first = {}
        for row in parsed.adj:
            assert first.setdefault(row, row) is row  # twins share one row


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_edges(2, [(1, 1)])
    with pytest.raises(ValueError, match="duplicate edge"):
        Graph.from_edges(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph.from_edges(-1, [])


def _built(build, n, edges):
    """The adjacency ``build`` makes, or the type and text of its error."""
    try:
        return build(n, edges).adj
    except (TypeError, ValueError) as exc:  # the type is part of the outcome
        return type(exc), str(exc)


# Planted faults: each returns the item to insert, given n and the edges so far.
_FAULTS = {
    "self-loop": lambda rng, n, edges: (rng.randrange(n),) * 2,
    "repeated edge": lambda rng, n, edges: rng.choice(edges),
    "repeated edge, reversed": lambda rng, n, edges: rng.choice(edges)[::-1],
    "id n or more": lambda rng, n, edges: (rng.randrange(n), n + rng.randrange(3)),
    "id below 0": lambda rng, n, edges: (-rng.randint(1, 2 * n), rng.randrange(n)),
    "not a pair": lambda rng, n, edges: rng.choice(((1,), (0, 1, 2), None, 7)),
}


def test_from_edges_matches_the_reference():
    rng = random.Random(43)
    for trial in range(900):
        n = rng.randint(0, 300 if trial % 50 == 0 else 12)
        edges = [
            (u, v) if rng.random() < 0.5 else (v, u)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.4
        ]
        if trial % 3 == 1:
            edges.reverse()
        elif trial % 3 == 2:
            rng.shuffle(edges)
        if edges and trial % 2:
            for fault in rng.sample(list(_FAULTS), rng.randint(1, 2)):
                edges.insert(rng.randint(0, len(edges)), _FAULTS[fault](rng, n, edges))
        # a one-shot iterator must still word the first fault
        given = iter(edges) if trial % 4 == 3 else edges
        expected = _built(reference_from_edges, n, edges)
        assert _built(Graph.from_edges, n, given) == expected
        if isinstance(expected, tuple) and all(isinstance(r, tuple) for r in expected):
            first = {}
            for row in Graph.from_edges(n, edges).adj:
                assert first.setdefault(row, row) is row  # twins share one row


def test_builders():
    assert complete_graph(4).m == 6
    assert path_graph(5).m == 4
    assert complete_bipartite(2, 3).m == 6
    assert complete_graph(0).n == 0


def test_motif_instance_validation():
    g = path_graph(3)
    inst = MotifInstance(g, (1, 2, 1), (1, 1, 2))
    assert inst.motif == (1, 1, 2)  # canonicalized sorted
    assert inst.motif_counts() == {1: 2, 2: 1}
    with pytest.raises(ValueError, match="every vertex"):
        MotifInstance(g, (1, 2), (1,))
    with pytest.raises(ValueError, match="nonempty"):
        MotifInstance(g, (1, 2, 1), ())
    with pytest.raises(ValueError, match="vertex colors must be positive"):
        MotifInstance(g, (1, 0, 1), (1,))
    with pytest.raises(ValueError, match="motif colors must be positive"):
        MotifInstance(g, (1, 2, 1), (2, -1))
    assert MotifInstance(Graph.from_edges(0, []), (), (1,)).vertex_color == ()


def test_paths_instance_validation():
    g = complete_graph(5)
    inst = PathsInstance(g, ((0, 1), (2, 3)))
    assert inst.terminals() == (0, 1, 2, 3)
    with pytest.raises(ValueError, match="equal endpoints"):
        PathsInstance(g, ((2, 2),))
    with pytest.raises(ValueError, match="pairwise distinct"):
        PathsInstance(g, ((0, 1), (1, 2)))
    with pytest.raises(ValueError, match="out of range"):
        PathsInstance(g, ((0, 7),))


def test_precolor_instance_validation():
    g = path_graph(3)
    PrecolorInstance(g, {0: 1, 2: 1}, 2)  # non-adjacent same color is fine
    with pytest.raises(ValueError, match="improper"):
        PrecolorInstance(g, {0: 1, 1: 1}, 2)
    with pytest.raises(ValueError, match="out of range"):
        PrecolorInstance(g, {0: 3}, 2)
    with pytest.raises(ValueError, match="positive"):
        PrecolorInstance(g, {}, 0)
