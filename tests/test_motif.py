import random
from itertools import combinations, product

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
from ndsolve.generate import random_instance, random_template
from ndsolve.motif import (
    candidate_type_set,
    connected_type_sets,
    extend_skeleton,
    skeleton_exists,
)
from helpers import small_sweep_instance


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


def _decomposed(inst):
    partition = compute_type_partition(inst.graph)
    return partition, build_type_graph(inst.graph, partition)


def test_skeleton_forced_matching():
    # two joined independent types, one red-only, one green-only
    g = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    inst = MotifInstance(g, (1, 1, 2, 2), (1, 2))
    partition, type_graph = _decomposed(inst)
    candidate = candidate_type_set(type_graph, (0, 1))
    skeleton = skeleton_exists(inst, partition, candidate)
    assert skeleton is not None
    assert skeleton.chosen == {0: 0, 1: 2}


def test_skeleton_unsaturated_type():
    g = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    inst = MotifInstance(g, (1, 1, 2, 2), (1, 1))  # green type has no red
    partition, type_graph = _decomposed(inst)
    candidate = candidate_type_set(type_graph, (0, 1))
    assert skeleton_exists(inst, partition, candidate) is None


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
        partition, type_graph = _decomposed(inst)
        k = partition.num_types
        for mask in range(1, 1 << k):
            types = tuple(t for t in range(k) if mask >> t & 1)
            if len(types) > 4 or any(
                len(partition.classes[t]) > 5 for t in types
            ):
                continue
            candidate = candidate_type_set(type_graph, types)
            got = skeleton_exists(inst, partition, candidate) is not None
            assert got == exhaustive_skeleton(inst, partition, types)


def test_extension_is_a_no_op_when_skeleton_covers_the_motif():
    g = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    inst = MotifInstance(g, (1, 1, 2, 2), (1, 2))
    partition, type_graph = _decomposed(inst)
    candidate = candidate_type_set(type_graph, (0, 1))
    skeleton = skeleton_exists(inst, partition, candidate)
    witness = extend_skeleton(inst, partition, candidate, skeleton)
    assert set(witness.vertices) == set(skeleton.chosen.values())


def test_extension_fills_missing_colors():
    # clique type with two reds and a green; skeleton alone is just one vertex
    g = complete_graph(3)
    inst = MotifInstance(g, (1, 1, 2), (1, 1, 2))
    partition, type_graph = _decomposed(inst)
    candidate = candidate_type_set(type_graph, (0,))
    skeleton = skeleton_exists(inst, partition, candidate)
    witness = extend_skeleton(inst, partition, candidate, skeleton)
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
        got = list(connected_type_sets(type_graph, colored, len(inst.motif)))
        assert len(got) == len(set(got))
        assert all(list(types) == sorted(types) for types in got)
        want = set()
        for mask in range(1, 1 << k):
            types = tuple(t for t in range(k) if mask >> t & 1)
            if (
                len(types) <= len(inst.motif)
                and set(types) <= set(colored)
                and candidate_type_set(type_graph, types).connected
            ):
                want.add(types)
        assert set(got) == want


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
