import random
import time
from itertools import combinations, product

import pytest

from ndsolve import (
    Graph,
    MotifInstance,
    complete_graph,
    compute_type_partition,
    build_type_graph,
    oracle_motif,
    path_graph,
    solve_motif,
    validate_motif_witness,
)
from ndsolve.decomposition import TypeGraph
from ndsolve.generate import generate_from_template, random_instance, random_template
from ndsolve.motif import (
    CandidateTypeSet,
    candidate_type_set,
    color_tables,
    connected_type_sets,
    extend_skeleton,
    skeleton_exists,
)
from helpers import (
    far_color_motif,
    reference_motif_witness,
    rows_connected,
    small_sweep_instance,
)


def test_adjacent_pair_in_triangle():
    inst = MotifInstance(complete_graph(3), (1, 2, 3), (1, 2))
    report = solve_motif(inst)
    assert report.answer
    assert report.witness.vertices == (0, 1)
    assert report.nd == 1


def test_split_red_pair_is_no():
    inst = MotifInstance(path_graph(3), (1, 2, 1), (1, 1))
    assert not solve_motif(inst).answer


def test_whole_path_is_yes():
    inst = MotifInstance(path_graph(3), (1, 2, 1), (1, 2, 1))
    report = solve_motif(inst)
    assert report.answer
    assert report.witness.vertices == (0, 1, 2)


def test_lone_independent_type_cannot_host_two_vertices():
    inst = MotifInstance(Graph.from_edges(3, []), (1, 1, 1), (1, 1))
    assert not solve_motif(inst).answer


def test_single_color_short_circuit():
    # The one-color short-circuit branch is gone; this case runs the general loop.
    inst = MotifInstance(Graph.from_edges(3, []), (1, 2, 1), (2,))
    report = solve_motif(inst)
    assert report.answer
    assert report.witness.vertices == (1,)
    assert not solve_motif(
        MotifInstance(Graph.from_edges(3, []), (1, 2, 1), (3,))
    ).answer


def test_absent_motif_color_answers_before_any_growth(monkeypatch):
    # colors 1-3 on 24 types and a motif that also asks for color 4: the
    # pool of every motif-colored type together misses it, so no set is grown
    graph = generate_from_template(random_template(24, 72, 5, edge_prob=0.3), 5)
    rng = random.Random(5)
    inst = MotifInstance(
        graph, tuple(rng.randint(1, 3) for _ in range(72)), (1, 1, 2, 2, 3, 3, 4)
    )

    def never(*args):
        raise AssertionError("connected_type_sets was called")

    monkeypatch.setattr("ndsolve.motif.connected_type_sets", never)
    report = solve_motif(inst)
    assert report.nd == 24
    assert not report.answer


def test_split_motif_color_answers_without_growth(monkeypatch):
    # colors 1-6 on 40 template classes and one isolated vertex of color 7:
    # the whole graph's pool covers the motif (1, ..., 7), but no component
    # of the motif-colored types does, so no set is grown
    graph = generate_from_template(random_template(40, 80, 0, edge_prob=0.15), 0)
    rng = random.Random(0)
    colors = tuple(rng.randint(1, 6) for _ in range(graph.n)) + (7,)
    graph = Graph.from_neighbor_lists([*graph.adj, ()])
    inst = MotifInstance(graph, colors, tuple(range(1, 8)))
    start = time.perf_counter()
    assert not solve_motif(inst).answer
    assert time.perf_counter() - start < 1.0

    def never(*args):
        raise AssertionError("connected_type_sets was called")

    monkeypatch.setattr("ndsolve.motif.connected_type_sets", never)
    assert not solve_motif(inst).answer


@pytest.mark.parametrize("k", [20, 31, 40])
def test_far_motif_color_answers_without_growth(monkeypatch, k):
    # the color-7 vertex ends a path of 8 hops, so no motif-colored root has
    # all seven colors within six steps: every root's ball is cut
    def never(*args):
        raise AssertionError("connected_type_sets was called")

    monkeypatch.setattr("ndsolve.motif.connected_type_sets", never)
    assert not solve_motif(far_color_motif(k, 8)).answer


def test_component_is_the_ball_networkx_finds():
    networkx = pytest.importorskip("networkx")
    rng = random.Random(31)
    for _ in range(200):
        k = rng.randint(1, 12)
        template = random_template(
            k, rng.randint(k, 3 * k), rng.getrandbits(32), edge_prob=rng.random() / 2
        )
        graph = generate_from_template(template, 0)
        type_graph = build_type_graph(graph, compute_type_partition(graph))
        k = type_graph.num_types
        types = sorted(rng.sample(range(k), rng.randint(0, k)))
        nx_graph = networkx.Graph()
        nx_graph.add_nodes_from(types)
        nx_graph.add_edges_from(
            (a, b) for a in types for b in type_graph.adj[a] if b in types
        )
        within = sum(1 << t for t in types)
        for root in types:
            for radius in range(k + 1):
                want = networkx.single_source_shortest_path_length(
                    nx_graph, root, cutoff=radius
                )
                got = type_graph.component(root, within, radius)
                assert got == sum(1 << t for t in want), (root, radius)
        if types:
            # the same flood fill answers the candidate-set test
            connected = candidate_type_set(type_graph, tuple(types)).connected
            assert connected == networkx.is_connected(nx_graph)


def test_candidate_type_set_takes_distinct_types_only():
    h = TypeGraph(3, ((1,), (0,), ()), (1, 1, 1), (False, False, True))
    assert candidate_type_set(h, (1, 0)) == CandidateTypeSet((0, 1), True)
    assert not candidate_type_set(h, (0, 2)).connected
    for types in ((), (0, 0), (2, 2)):
        with pytest.raises(ValueError):
            candidate_type_set(h, types)


def _decomposed(inst):
    partition = compute_type_partition(inst.graph)
    return partition, build_type_graph(inst.graph, partition)


def test_skeleton_forced_matching():
    # two joined independent types, one red-only, one green-only
    g = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    inst = MotifInstance(g, (1, 1, 2, 2), (1, 2))
    partition, _ = _decomposed(inst)
    assert skeleton_exists(inst, color_tables(inst, partition), (0, 1)) == {0: 0, 1: 2}


def test_skeleton_unsaturated_type():
    g = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    inst = MotifInstance(g, (1, 1, 2, 2), (1, 1))  # green type has no red
    partition, _ = _decomposed(inst)
    assert skeleton_exists(inst, color_tables(inst, partition), (0, 1)) is None


def exhaustive_skeleton(inst, partition, types):
    """Any one-vertex-per-type pick whose colors fit inside the motif."""
    want = inst.motif_counts()
    for pick in product(*(partition.classes[t] for t in types)):
        from collections import Counter

        used = Counter(inst.vertex_color[v] for v in pick)
        if all(used[c] <= want[c] for c in used):
            return True
    return False


def test_skeleton_agrees_with_exhaustive_search():
    rng = random.Random(404)
    for _ in range(120):
        inst = small_sweep_instance("motif", rng, max_n=10)
        partition, _ = _decomposed(inst)
        tables = color_tables(inst, partition)
        k = partition.num_types
        for mask in range(1, 1 << k):
            types = tuple(t for t in range(k) if mask >> t & 1)
            if len(types) > 4 or any(
                len(partition.classes[t]) > 5 for t in types
            ):
                continue
            got = skeleton_exists(inst, tables, types) is not None
            assert got == exhaustive_skeleton(inst, partition, types)


def test_extension_is_a_no_op_when_skeleton_covers_the_motif():
    g = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    inst = MotifInstance(g, (1, 1, 2, 2), (1, 2))
    partition, _ = _decomposed(inst)
    tables = color_tables(inst, partition)
    chosen = skeleton_exists(inst, tables, (0, 1))
    witness = extend_skeleton(inst, tables, (0, 1), chosen)
    assert set(witness.vertices) == set(chosen.values())


def test_extension_fills_missing_colors():
    # clique type with two reds and a green; skeleton alone is just one vertex
    g = complete_graph(3)
    inst = MotifInstance(g, (1, 1, 2), (1, 1, 2))
    partition, _ = _decomposed(inst)
    tables = color_tables(inst, partition)
    chosen = skeleton_exists(inst, tables, (0,))
    witness = extend_skeleton(inst, tables, (0,), chosen)
    assert witness.vertices == (0, 1, 2)
    validate_motif_witness(inst, witness.vertices)


def test_connected_type_sets_are_exactly_the_small_connected_sets():
    """Every connected set of <= |M| motif-colored types, each yielded once."""
    rng = random.Random(77)
    for _ in range(150):
        k = rng.randint(1, 8)
        n = rng.randint(k, 3 * k)
        template = random_template(k, n, rng.getrandbits(32), edge_prob=rng.random())
        inst = random_instance(
            "motif",
            template,
            rng.getrandbits(32),
            colors=rng.randint(1, 5),
            motif_size=rng.randint(1, min(6, n)),
        )
        partition, type_graph = _decomposed(inst)
        k = partition.num_types
        colored = [
            t
            for t in range(k)
            if any(inst.vertex_color[v] in inst.motif for v in partition.classes[t])
        ]
        colored_mask = sum(1 << t for t in colored)
        got = [
            types
            for root in colored
            for types in connected_type_sets(
                type_graph, root, colored_mask, len(inst.motif)
            )
        ]
        assert len(got) == len(set(got))
        assert all(list(types) == sorted(types) for types in got)
        want = set()
        for mask in range(1, 1 << k):
            types = tuple(t for t in range(k) if mask >> t & 1)
            if (
                len(types) <= len(inst.motif)
                and set(types) <= set(colored)
                and rows_connected(type_graph, types)
            ):
                want.add(types)
        assert set(got) == want


def test_witness_matches_the_vertex_order_reference():
    """The witness is the reference's: the first feasible set in growth
    order, extended vertex by vertex in type and id order."""
    rng = random.Random(1313)
    instances = [small_sweep_instance("motif", rng) for _ in range(1000)]
    for _ in range(300):
        k = rng.randint(2, 8)
        n = rng.randint(k, 30)
        template = random_template(
            k, n, rng.getrandbits(32), edge_prob=rng.random(), clique_prob=rng.random()
        )
        instances.append(
            random_instance(
                "motif",
                template,
                rng.getrandbits(32),
                colors=rng.randint(1, 4),
                motif_size=rng.randint(1, min(10, n)),
            )
        )
    # a color-7 vertex `hops` steps out: only some roots' balls reach it
    instances += [
        far_color_motif(k, hops) for k in range(6, 13) for hops in range(1, 9)
    ]
    yes = 0
    for inst in instances:
        report = solve_motif(inst)
        want = reference_motif_witness(inst)
        assert report.answer == (want is not None)
        if want is not None:
            yes += 1
            assert report.witness.vertices == want
    assert 300 < yes < len(instances)


def test_agrees_with_oracle_on_random_instances():
    rng = random.Random(550)
    yes = 0
    for _ in range(150):
        inst = small_sweep_instance("motif", rng)
        report = solve_motif(inst)
        answer, _ = oracle_motif(inst)
        assert report.answer == answer
        if report.answer:
            yes += 1
            validate_motif_witness(inst, report.witness.vertices)
    assert 20 < yes < 150  # both outcomes exercised


def test_brute_force_over_connected_subsets_tiny():
    """Cross-check against direct enumeration of connected vertex subsets."""
    from ndsolve.instances import induced_connected

    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(2, 7)
        edges = [
            (u, v)
            for u, v in combinations(range(n), 2)
            if rng.random() < 0.45
        ]
        g = Graph.from_edges(n, edges)
        colors = tuple(rng.randint(1, 3) for _ in range(n))
        size = rng.randint(1, n)
        bag = tuple(rng.choice(colors) for _ in range(size))
        inst = MotifInstance(g, colors, bag)
        want = any(
            induced_connected(g, sub)
            for sub in combinations(range(n), len(inst.motif))
            if sorted(colors[v] for v in sub) == list(inst.motif)
        )
        assert solve_motif(inst).answer == want
