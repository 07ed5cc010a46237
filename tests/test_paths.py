import random
from collections import Counter
from itertools import permutations

import pytest

from ndsolve import (
    Graph,
    PathsInstance,
    TypeGraph,
    build_type_graph,
    complete_graph,
    compute_type_partition,
    generate_from_template,
    oracle_paths,
    path_graph,
    random_instance,
    random_template,
    route_is_valid,
    simplify_path,
    solve_paths,
    validate_paths_witness,
)
from ndsolve.paths import build_paths_ilp, minimal_chains, reconstruct_paths
from ndsolve.ilp import solve_feasibility
from helpers import (
    random_labeled_graph,
    random_simple_walk,
    reference_minimal_chains,
    reference_simplify_path,
    small_sweep_instance,
)


def _decomposed(g):
    partition = compute_type_partition(g)
    return partition, build_type_graph(g, partition)


def test_route_validity_on_path3():
    g = path_graph(3)
    partition, h = _decomposed(g)
    ends = partition.type_of[0]
    mid = partition.type_of[1]
    assert route_is_valid(h, {mid}, ends, ends)
    assert not route_is_valid(h, set(), ends, ends)  # ends are not adjacent
    assert not route_is_valid(h, {ends}, ends, ends)


def test_route_empty_inside_clique():
    g = complete_graph(5)
    _, h = _decomposed(g)
    assert route_is_valid(h, set(), 0, 0)


def _linked(h, a, b):
    return h.has_edge(a, b) or (a == b and h.clique_flag[a])


def brute_route_valid(h, route, s_type, t_type):
    types = sorted(route)
    if not types:
        return _linked(h, s_type, t_type)
    for order in permutations(types):
        if not _linked(h, s_type, order[0]):
            continue
        if not _linked(h, order[-1], t_type):
            continue
        if all(_linked(h, a, b) for a, b in zip(order, order[1:])):
            return True
    return False


def test_route_validity_matches_permutation_search():
    rng = random.Random(606)
    for _ in range(40):
        g = random_labeled_graph(rng, rng.randint(3, 9), rng.random())
        _, h = _decomposed(g)
        k = h.num_types
        if k > 5:
            continue
        for mask in range(1 << k):
            route = {t for t in range(k) if mask >> t & 1}
            for s_type in range(k):
                for t_type in range(k):
                    assert route_is_valid(h, route, s_type, t_type) == \
                        brute_route_valid(h, route, s_type, t_type)


def test_minimal_chains_are_exactly_the_minimal_routes():
    rng = random.Random(1212)
    long_chains = 0
    for trial in range(60):
        k = rng.randint(2, 6)
        template = random_template(k, rng.randint(k, 3 * k), trial)
        _, h = _decomposed(generate_from_template(template, trial))
        k = h.num_types
        for s_type in range(k):
            for t_type in range(k):
                valid = [
                    m for m in range(1 << k)
                    if brute_route_valid(
                        h, {t for t in range(k) if m >> t & 1}, s_type, t_type
                    )
                ]
                minimal = {
                    frozenset(t for t in range(k) if m >> t & 1)
                    for m in valid
                    if not any(v != m and v & m == v for v in valid)
                }
                chains = list(minimal_chains(h, s_type, t_type))
                assert len(set(chains)) == len(chains)
                assert {frozenset(c) for c in chains} == minimal
                for chain in chains:
                    seq = (s_type, *chain, t_type)
                    assert all(_linked(h, a, b) for a, b in zip(seq, seq[1:]))
                    long_chains += len(chain) >= 2
    assert long_chains > 0


def _random_type_graph(rng: random.Random, k: int) -> TypeGraph:
    p = rng.random()
    adj = [set() for _ in range(k)]
    for a in range(k):
        for b in range(a + 1, k):
            if rng.random() < p:
                adj[a].add(b)
                adj[b].add(a)
    return TypeGraph(
        num_types=k,
        adj=tuple(tuple(sorted(row)) for row in adj),
        size=tuple(rng.randint(1, 3) for _ in range(k)),
        clique_flag=tuple(rng.random() < 0.5 for _ in range(k)),
    )


def test_minimal_chains_match_the_counter_walk():
    # same chains in the same order as the walk that kept a per-type
    # counter, for every ordered endpoint pair, the equal ones included
    rng = random.Random(2020)
    seen = Counter()
    for _ in range(400):
        h = _random_type_graph(rng, rng.randint(2, 9))
        for s_type in range(h.num_types):
            for t_type in range(h.num_types):
                chains = list(minimal_chains(h, s_type, t_type))
                assert chains == list(reference_minimal_chains(h, s_type, t_type))
                # a chain member is never an end type
                assert not any({s_type, t_type} & set(chain) for chain in chains)
                seen["equal ends" if s_type == t_type else "distinct ends"] += 1
                for end in (s_type, t_type):
                    seen["clique end" if h.clique_flag[end] else "independent end"] += 1
                seen["long chain"] += sum(len(chain) >= 2 for chain in chains)
    assert min(seen.values()) > 100, seen


def test_simplify_keeps_already_simple_paths():
    g = path_graph(4)
    partition = compute_type_partition(g)
    assert simplify_path(g, partition, [0, 1, 2, 3]) == (0, 1, 2, 3)


def test_simplify_rejects_an_input_that_is_not_a_path():
    g = path_graph(4)
    partition = compute_type_partition(g)
    with pytest.raises(ValueError, match="input path repeats a vertex"):
        simplify_path(g, partition, [0, 1, 0])
    with pytest.raises(ValueError, match=r"input path uses the missing edge \(1, 3\)"):
        simplify_path(g, partition, [0, 1, 3])


def test_simplify_shortcuts_repeated_clique_type():
    g = complete_graph(4)
    partition = compute_type_partition(g)
    out = simplify_path(g, partition, [0, 1, 2, 3])
    assert out == (0, 1, 3)  # first internal repeat jumps to the successor


def test_simplify_random_walks_become_simple_and_stay_valid():
    rng = random.Random(717)
    done = 0
    while done < 200:
        inst = small_sweep_instance("paths", rng)
        g = inst.graph
        walk = random_simple_walk(rng, g)
        if walk is None or len(walk) < 2:
            continue
        partition = compute_type_partition(g)
        out = simplify_path(g, partition, walk)
        assert out[0] == walk[0] and out[-1] == walk[-1]
        assert set(out) <= set(walk)
        assert len(set(out)) == len(out)
        for u, v in zip(out, out[1:]):
            assert g.has_edge(u, v)
        from collections import Counter

        internal = Counter(partition.type_of[v] for v in out[1:-1])
        assert all(c == 1 for c in internal.values())
        done += 1


def test_simplify_matches_the_repeated_shortcut_reference():
    rng = random.Random(1919)
    walks = shortcut = graphs = 0
    while walks < 10_000:
        graphs += 1
        if graphs % 2:
            g = small_sweep_instance("paths", rng).graph
        else:
            g = random_labeled_graph(rng, rng.randint(2, 60), rng.random())
        partition = compute_type_partition(g)
        for _ in range(10):
            walk = random_simple_walk(rng, g)
            if walk is None:
                continue
            for path in (walk, walk[:1], []):
                out = simplify_path(g, partition, path)
                assert out == reference_simplify_path(g, partition, path)
            walks += 1
            shortcut += len(simplify_path(g, partition, walk)) < len(walk)
    assert shortcut > 1000


def test_ilp_for_star_is_infeasible():
    g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    inst = PathsInstance(g, ((1, 2), (3, 4)))
    partition, h = _decomposed(g)
    problem, categories = build_paths_ilp(inst, partition, h)
    assert len(categories) == 1  # leaf-to-leaf through the center, only
    assert solve_feasibility(problem) is None


def test_ilp_for_path3_has_unique_count():
    g = path_graph(3)
    inst = PathsInstance(g, ((0, 2),))
    partition, h = _decomposed(g)
    problem, categories = build_paths_ilp(inst, partition, h)
    solution = solve_feasibility(problem)
    assert solution is not None
    assert sum(solution.values) == 1


def test_no_pairs_is_trivially_yes():
    report = solve_paths(PathsInstance(complete_graph(4), ()))
    assert report.answer
    assert report.witness.paths == ()
    assert report.ilp_vars == 0


def test_direct_edges_in_clique():
    report = solve_paths(PathsInstance(complete_graph(4), ((0, 1), (2, 3))))
    assert report.answer
    assert report.witness.paths == ((0, 1), (2, 3))


def test_star_says_no():
    g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert not solve_paths(PathsInstance(g, ((1, 2), (3, 4)))).answer


def test_reconstruction_is_forced_on_path3():
    report = solve_paths(PathsInstance(path_graph(3), ((0, 2),)))
    assert report.answer
    assert report.witness.paths == ((0, 1, 2),)


def test_multi_type_chain_walked_against_normalized_order():
    report = solve_paths(PathsInstance(path_graph(4), ((3, 0),)))
    assert report.answer
    assert report.witness.paths == ((3, 2, 1, 0),)


def test_one_endpoint_pair_hands_out_its_chains_in_both_orientations():
    # types 0 = {0, 1} and 1 = {2, 3} meet through x = 4 (type 2) or through
    # y = 5 then z = 6 (types 3, 4); each middle type has one vertex, so
    # the two pairs take one chain each, in compile order, and the pair
    # whose source is in type 1 walks its chain backwards
    edges = [(0, 4), (1, 4), (2, 4), (3, 4), (0, 5), (1, 5), (5, 6), (6, 2), (6, 3)]
    g = Graph.from_edges(7, edges)
    partition, h = _decomposed(g)
    for pairs, paths in (
        (((0, 2), (3, 1)), ((0, 4, 2), (3, 6, 5, 1))),
        (((3, 1), (0, 2)), ((3, 4, 1), (0, 5, 6, 2))),
    ):
        inst = PathsInstance(g, pairs)
        _, categories = build_paths_ilp(inst, partition, h)
        assert [cat.chain for cat in categories] == [(2,), (3, 4)]
        assert reconstruct_paths(inst, partition, categories, (1, 1)).paths == paths
        assert solve_paths(inst).witness.paths == paths


def test_large_k_compiles_a_small_system():
    inst = random_instance("paths", random_template(12, 200, 1), 1, num_pairs=3)
    report = solve_paths(inst)
    assert report.nd == 12
    assert report.ilp_vars < 100
    assert report.answer
    partition = compute_type_partition(inst.graph)
    validate_paths_witness(inst, report.witness.paths, type_of=partition.type_of)


def test_long_chain_needs_no_recursion():
    # every vertex of a long path is its own type, so the only chain has
    # k - 2 types and the chain search goes k deep
    inst = PathsInstance(path_graph(3000), ((0, 2999),))
    report = solve_paths(inst)
    assert report.nd == 3000
    assert report.answer
    partition = compute_type_partition(inst.graph)
    validate_paths_witness(inst, report.witness.paths, type_of=partition.type_of)
    assert report.witness.paths == (tuple(range(3000)),)


def test_linked_ends_leave_the_masks_unbuilt():
    # a mask is as wide as its type's highest neighbour, so on this k = 3000
    # path the chain walk's masks would take k**2 / 16 bytes; ends that link
    # answer from the rows alone
    g = path_graph(3000)
    partition, h = _decomposed(g)
    _, categories = build_paths_ilp(PathsInstance(g, ((1, 2),)), partition, h)
    assert [cat.chain for cat in categories] == [()]
    assert "masks" not in vars(h)


def test_agrees_with_oracle_on_random_instances():
    rng = random.Random(889)
    yes = 0
    for _ in range(150):
        inst = small_sweep_instance("paths", rng)
        report = solve_paths(inst)
        answer, _ = oracle_paths(inst)
        assert report.answer == answer
        if report.answer:
            yes += 1
            partition = compute_type_partition(inst.graph)
            validate_paths_witness(
                inst, report.witness.paths, type_of=partition.type_of
            )
    assert 20 < yes < 150


def test_reconstruction_determinism():
    rng = random.Random(31)
    for _ in range(30):
        inst = small_sweep_instance("paths", rng)
        a = solve_paths(inst)
        b = solve_paths(inst)
        assert a.answer == b.answer
        if a.answer:
            assert a.witness == b.witness


def test_capacity_rows_follow_the_chains():
    # one <= row per type some chain passes whose non-terminal vertex count
    # is below the number of pairs, in type order, with a 1 for each
    # category through it and that count
    rng = random.Random(606)
    for _ in range(200):
        k = rng.randint(1, 8)
        n = rng.randint(k, 24)
        template = random_template(
            k, n, rng.getrandbits(32), edge_prob=rng.random(), clique_prob=rng.random()
        )
        inst = random_instance(
            "paths", template, rng.getrandbits(32), num_pairs=rng.randint(0, min(4, n // 2))
        )
        partition, type_graph = _decomposed(inst.graph)
        problem, categories = build_paths_ilp(inst, partition, type_graph)
        expected = []
        for t in range(partition.num_types):
            terms = tuple((i, 1) for i, cat in enumerate(categories) if t in cat.chain)
            terminals = sum(partition.type_of[v] == t for v in inst.terminals())
            capacity = type_graph.size[t] - terminals
            if terms and capacity < len(inst.pairs):
                expected.append((terms, capacity))
        rows = [(c.terms, c.rhs) for c in problem.constraints if c.relation == "<="]
        assert rows == expected


def test_free_type_gets_no_capacity_row():
    # four terminals in one independent class (type 0), fully joined to a
    # middle class (type 1) that both pairs must cross: with three vertices
    # it can never fill up and gets no row; with one it binds at 1 and the
    # answer is no
    for middle, rows, answer in ((3, [], True), (1, [(((0, 1),), 1)], False)):
        edges = [(u, m) for u in range(4) for m in range(4, 4 + middle)]
        inst = PathsInstance(Graph.from_edges(4 + middle, edges), ((0, 2), (1, 3)))
        partition, type_graph = _decomposed(inst.graph)
        problem, categories = build_paths_ilp(inst, partition, type_graph)
        assert [cat.chain for cat in categories] == [(1,)]
        assert [
            (c.terms, c.rhs) for c in problem.constraints if c.relation == "<="
        ] == rows
        assert solve_paths(inst).answer == answer
