import random

import pytest

from ndsolve import (
    Graph,
    TypePartition,
    build_type_graph,
    complete_bipartite,
    complete_graph,
    compute_type_partition,
    compute_vertex_cover,
    generate_from_template,
    path_graph,
    same_type,
    verify_partition,
)
from helpers import (
    all_labeled_graphs,
    brute_min_type_partition,
    literal_same_type,
    random_labeled_graph,
    reference_type_graph,
)
from ndsolve.generate import sparse_template


@pytest.mark.parametrize("n", [2, 10, 100])
def test_complete_graphs_have_one_type(n):
    p = compute_type_partition(complete_graph(n))
    assert p.num_types == 1
    assert p.clique_flag == (True,)


def test_path3_partition():
    # ends are non-adjacent twins, middle is alone
    p = compute_type_partition(path_graph(3))
    assert p.classes == ((0, 2), (1,))
    assert p.clique_flag == (False, False)


def test_path4_all_singletons():
    p = compute_type_partition(path_graph(4))
    assert p.num_types == 4
    assert all(len(c) == 1 for c in p.classes)


def test_same_type_matches_literal_definition():
    rng = random.Random(99)
    for _ in range(50):
        g = random_labeled_graph(rng, 8, rng.random())
        for u in range(g.n):
            for v in range(g.n):
                assert same_type(g, u, v) == literal_same_type(g, u, v)


def test_partition_is_deterministic_and_ordered():
    rng = random.Random(5)
    for _ in range(25):
        g = random_labeled_graph(rng, 10, 0.4)
        p1 = compute_type_partition(g)
        p2 = compute_type_partition(g)
        assert p1 == p2
        firsts = [members[0] for members in p1.classes]
        assert firsts == sorted(firsts)


def test_minimality_against_brute_force_small():
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            p = compute_type_partition(g)
            assert p.num_types == brute_min_type_partition(g)
            assert verify_partition(g, p)


def test_verify_partition_rejects_refinements_and_bad_groups():
    k3 = complete_graph(3)
    singletons = TypePartition(
        type_of=(0, 1, 2),
        classes=((0,), (1,), (2,)),
        clique_flag=(False, False, False),
        num_types=3,
    )
    assert not verify_partition(k3, singletons)  # mergeable classes

    p4 = path_graph(4)
    ends_grouped = TypePartition(
        type_of=(0, 1, 2, 0),
        classes=((0, 3), (1,), (2,)),
        clique_flag=(False, False, False),
        num_types=3,
    )
    assert not verify_partition(p4, ends_grouped)  # ends are not twins

    with pytest.raises(ValueError, match="shape"):
        verify_partition(k3, compute_type_partition(path_graph(4)))
    # a partition of the right shape whose classes are not a partition
    for type_of, classes, match in (
        ((0, 0, 0), ((0, 1, 2), ()), "class 1 is empty"),
        ((0, 0, 1), ((0, 1), (1, 2)), "do not partition the vertex set"),
        ((0, 1, 1), ((0,), (1,)), "do not partition the vertex set"),
    ):
        bad = TypePartition(type_of, classes, (False, False), 2)
        with pytest.raises(ValueError, match=match):
            verify_partition(k3, bad)


def test_type_graph_k23():
    g = complete_bipartite(2, 3)
    h = build_type_graph(g, compute_type_partition(g))
    assert h.num_types == 2
    assert h.size == (2, 3)
    assert h.clique_flag == (False, False)
    assert list(h.edges()) == [(0, 1)]
    assert h.linked(0, 1) and not h.linked(0, 0)


def test_type_graph_k5_isolated_clique_type():
    g = complete_graph(5)
    h = build_type_graph(g, compute_type_partition(g))
    assert h.num_types == 1
    assert h.size == (5,)
    assert h.clique_flag == (True,)
    assert list(h.edges()) == []
    assert h.linked(0, 0)


def test_type_graph_disjoint_triangles():
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    g = Graph.from_edges(6, edges)
    p = compute_type_partition(g)
    h = build_type_graph(g, p)
    assert h.num_types == 2
    assert h.clique_flag == (True, True)
    assert list(h.edges()) == []


def test_type_graph_rejects_corrupted_partition():
    p4 = path_graph(4)
    corrupt = TypePartition(
        type_of=(0, 0, 1, 1),
        classes=((0, 1), (2, 3)),
        clique_flag=(True, True),
        num_types=2,
    )
    with pytest.raises(ValueError):
        build_type_graph(p4, corrupt)


@pytest.mark.parametrize(
    "graph, partition, match",
    [
        # the representative of {0} sees one of the two vertices of {1, 2}
        (
            path_graph(3),
            TypePartition((0, 1, 1), ((0,), (1, 2)), (False, True), 2),
            "partially joined",
        ),
        # the representative of an independent class sees its own class
        (
            path_graph(3),
            TypePartition((0, 0, 0), ((0, 1, 2),), (False,), 1),
            "neither a clique nor independent",
        ),
        (
            Graph.from_edges(2, []),
            TypePartition((0, 0), ((0, 1), ()), (False, False), 2),
            "empty",
        ),
        # 0 lists 1 as a neighbor, but 1 does not list 0
        (
            Graph(2, ((1,), ())),
            TypePartition((0, 1), ((0,), (1,)), (False, False), 2),
            "not symmetric",
        ),
    ],
)
def test_type_graph_names_each_corruption(graph, partition, match):
    with pytest.raises(ValueError, match=match):
        build_type_graph(graph, partition)


def test_type_graph_matches_edge_count_reference():
    rng = random.Random(2718)
    graphs = [g for n in range(1, 6) for g in all_labeled_graphs(n)]
    for n in (8, 20, 40):
        for p in (0.1, 0.5, 0.9):
            graphs.extend(random_labeled_graph(rng, n, p) for _ in range(10))
    graphs.append(generate_from_template(sparse_template(6, 10_000, seed=4), 9))
    for g in graphs:
        p = compute_type_partition(g)
        assert verify_partition(g, p)
        assert build_type_graph(g, p) == reference_type_graph(g, p)


def test_masks_match_the_rows_and_are_built_on_first_read():
    rng = random.Random(1618)
    graphs = [g for n in range(1, 5) for g in all_labeled_graphs(n)]
    graphs.extend(random_labeled_graph(rng, 14, rng.random()) for _ in range(60))
    for g in graphs:
        p = compute_type_partition(g)
        for h in (build_type_graph(g, p), reference_type_graph(g, p)):
            k = h.num_types
            # the row-level queries leave the masks unbuilt
            assert not any(h.linked(a, -1) for a in range(k))
            list(h.edges())
            assert "masks" not in vars(h)
            for a in range(k):
                assert h.masks[a] >> k == 0
                for b in range(k):
                    assert (h.masks[a] >> b & 1 == 1) == (b in h.adj[a])
            assert "masks" not in repr(h)
            assert h == reference_type_graph(g, p)


def exhaustive_has_cover(g: Graph, budget: int) -> bool:
    from itertools import combinations

    edges = list(g.edges())
    for size in range(budget + 1):
        for subset in combinations(range(g.n), size):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in edges):
                return True
    return False


def test_vertex_cover_examples():
    assert compute_vertex_cover(Graph.from_edges(4, []), 0) == ()
    assert compute_vertex_cover(path_graph(3), 1) == (1,)
    assert compute_vertex_cover(complete_graph(4), 2) is None
    cover = compute_vertex_cover(complete_graph(4), 3)
    assert cover is not None and len(cover) == 3
    with pytest.raises(ValueError, match="budget must be nonnegative"):
        compute_vertex_cover(path_graph(3), -1)


def test_vertex_cover_against_exhaustive():
    rng = random.Random(77)
    for _ in range(40):
        g = random_labeled_graph(rng, rng.randint(2, 9), rng.random())
        for budget in range(0, 6):
            found = compute_vertex_cover(g, budget)
            assert (found is not None) == exhaustive_has_cover(g, budget)
            if found is not None:
                assert len(found) <= budget
                chosen = set(found)
                assert all(u in chosen or v in chosen for u, v in g.edges())


def test_hierarchy_bound_small_sample():
    rng = random.Random(31337)
    for _ in range(30):
        g = random_labeled_graph(rng, rng.randint(3, 10), rng.random())
        for budget in range(0, g.n + 1):
            cover = compute_vertex_cover(g, budget)
            if cover is not None:
                break
        k = compute_type_partition(g).num_types
        assert k <= 2 ** len(cover) + len(cover)


def test_vertex_cover_needs_no_recursion():
    # each disjoint edge costs one branching level, so the search is 1100 deep
    m = 1100
    g = Graph.from_edges(2 * m, [(2 * i, 2 * i + 1) for i in range(m)])
    assert compute_vertex_cover(g, m) == tuple(range(0, 2 * m, 2))
