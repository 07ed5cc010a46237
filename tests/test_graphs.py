import random
from pathlib import Path

import pytest

from ndsolve import (
    Graph,
    MotifInstance,
    PathsInstance,
    PrecolorInstance,
    complete_bipartite,
    complete_graph,
    compute_type_partition,
    cycle_graph,
    parse_instance,
    path_graph,
    serialize_instance,
    validate_coloring_witness,
    validate_motif_witness,
    validate_paths_witness,
)
from ndsolve.generate import generate_from_template, random_template
from ndsolve.instances import induced_connected
from helpers import reference_from_edges

DATA_DIR = Path(__file__).parent / "data"


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
    assert cycle_graph(5).adj == ((1, 4), (0, 2), (1, 3), (2, 4), (0, 3))
    with pytest.raises(ValueError, match="cycle needs at least 3 vertices"):
        cycle_graph(2)


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
    with pytest.raises(ValueError, match="precolored vertex 5 out of range"):
        PrecolorInstance(g, {5: 1}, 2)
    with pytest.raises(ValueError, match="positive"):
        PrecolorInstance(g, {}, 0)


def _check_witness(instance, witness):
    """Run the validator of the instance's problem on ``witness``."""
    if isinstance(instance, MotifInstance):
        validate_motif_witness(instance, witness)
    elif isinstance(instance, PathsInstance):
        type_of = compute_type_partition(instance.graph).type_of
        validate_paths_witness(instance, witness, type_of=type_of)
    else:
        validate_coloring_witness(instance, witness)


# (corpus file, a valid witness or None, that witness broken one way, error)
# motif-triangle-yes: a triangle colored 1, 2, 3 with motif {1, 2};
# motif-generated-41: vertex 2 (color 2) has no edge, vertex 0 has color 3;
# paths-clique-yes: K4, one clique type, pairs (0, 1) and (2, 3);
# paths-star-no: a star around 0 with pairs (1, 2) and (3, 4), no witness;
# precolor-triangle-yes: a triangle, 3 colors, vertex 0 pinned to 1.
_BROKEN_WITNESSES = [
    ("motif-triangle-yes.nd", (0, 1), (0, 0), "witness repeats a vertex"),
    ("motif-triangle-yes.nd", (0, 1), (0, 3), "witness vertex 3 out of range"),
    ("motif-triangle-yes.nd", (0, 1), (0, 2), "colors do not match the motif"),
    ("motif-generated-41.nd", (0, 1), (0, 2), "induces a disconnected subgraph"),
    (
        "paths-clique-yes.nd",
        ((0, 1), (2, 3)),
        ((0, 1),),
        "must contain one path per terminal pair",
    ),
    (
        "paths-clique-yes.nd",
        ((0, 1), (2, 3)),
        ((1, 0), (2, 3)),
        r"path for pair \(0, 1\) has wrong endpoints",
    ),
    (
        "paths-clique-yes.nd",
        ((0, 1), (2, 3)),
        ((0, 2, 0, 1), (2, 3)),
        "path repeats a vertex",
    ),
    ("paths-star-no.nd", None, ((1, 0, 2), (3, 4)), r"missing edge \(3, 4\)"),
    (
        "paths-clique-yes.nd",
        ((0, 1), (2, 3)),
        ((0, 2, 1), (2, 3)),
        r"paths share vertices \[2\]",
    ),
    (
        "paths-clique-yes.nd",
        ((0, 1), (2, 3)),
        ((0, 2, 3, 1), (2, 3)),
        "two internal vertices of one type",
    ),
    (
        "precolor-triangle-yes.nd",
        (1, 2, 3),
        (1, 2),
        "must assign a color to every vertex",
    ),
    (
        "precolor-triangle-yes.nd",
        (1, 2, 3),
        (2, 1, 3),
        "does not keep precolor of vertex 0",
    ),
    (
        "precolor-triangle-yes.nd",
        (1, 2, 3),
        (1, 2, 2),
        r"edge \(1, 2\) is monochromatic",
    ),
]


@pytest.mark.parametrize("corpus_file, valid, broken, match", _BROKEN_WITNESSES)
def test_witness_validators_name_each_fault(corpus_file, valid, broken, match):
    instance = parse_instance((DATA_DIR / corpus_file).read_text())
    if valid is not None:
        _check_witness(instance, valid)
    with pytest.raises(ValueError, match=match):
        _check_witness(instance, broken)


def test_induced_connected_counts_the_empty_set_as_connected():
    assert induced_connected(path_graph(3), [])
    assert not induced_connected(path_graph(3), [0, 2])
