import random
import time
from dataclasses import replace
from itertools import combinations

import pytest

from ndsolve import (
    Graph,
    PrecolorInstance,
    build_type_graph,
    complete_graph,
    compute_type_partition,
    oracle_precolor,
    path_graph,
    reduce_independent_types,
    solve_precolor,
    validate_coloring_witness,
)
from ndsolve.ilp import solve_feasibility
from ndsolve.decomposition import TypeGraph, mask_members
from ndsolve.precolor import (
    build_precolor_ilp,
    compile_precolor,
    compute_color_categories,
    maximal_cliques,
    peel_types,
    pinned_colors,
)
from ndsolve.generate import random_instance, random_template
from helpers import reference_reduced_instance, small_sweep_instance

C4_EDGES = [(0, 1), (0, 3), (2, 1), (2, 3)]  # = K_{2,2}, types {0,2} and {1,3}


def _pins(inst, partition):
    return pinned_colors(inst, partition.type_of, partition.num_types)


def _categories(inst, partition):
    return compute_color_categories(inst, _pins(inst, partition))


def _reduced(inst):
    """The frozen types, the partition and the type graph of ``inst``."""
    partition = compute_type_partition(inst.graph)
    frozen = reduce_independent_types(_pins(inst, partition), partition)
    return frozen, partition, build_type_graph(inst.graph, partition)


def _fan(pinned, budget):
    # independent leaf class {0..5}, all joined to the hub 6
    fan = Graph.from_edges(7, [(v, 6) for v in range(6)])
    return PrecolorInstance(fan, pinned, budget)


def test_reduction_extends_pinned_color_over_independent_type():
    # a pinned leaf freezes its class, and every open leaf takes its color
    inst = _fan({0: 4, 3: 2}, 4)
    frozen, partition, _ = _reduced(inst)
    assert frozen == {partition.type_of[0]}
    colors = solve_precolor(inst).witness.colors
    assert colors[:6] == (4, 2, 2, 2, 2, 2)  # the lowest pinned color
    assert colors[6] not in (2, 4)


def test_reduction_collapses_uncolored_independent_type():
    # with nothing pinned, the leaf class needs one color, which all share
    inst = _fan({}, 2)
    frozen, partition, h = _reduced(inst)
    assert frozen == frozenset()
    cats = _categories(inst, partition)
    problem, _ = build_precolor_ilp(frozen, cats, h)
    assert [c.rhs for c in problem.constraints if c.relation == "<="] == [-1, -1]
    colors = solve_precolor(inst).witness.colors
    assert len(set(colors[:6])) == 1 and colors[6] != colors[0]


def test_reduction_leaves_clique_types_alone():
    inst = PrecolorInstance(complete_graph(4), {0: 1, 1: 2}, 4)
    frozen, _, _ = _reduced(inst)
    assert frozen == frozenset()
    assert solve_precolor(inst).witness.colors == (1, 2, 3, 4)


def test_reduction_reads_only_the_pinned_vertices():
    # a type table holding only the pinned vertices and no class lists
    # gives the same pins and frozen set as the full partition
    inst = _fan({2: 1}, 3)
    partition = compute_type_partition(inst.graph)
    pinned_only = replace(partition, type_of={2: partition.type_of[2]}, classes=None)
    pins = _pins(inst, pinned_only)
    assert pins == _pins(inst, partition)
    frozen = reduce_independent_types(pins, pinned_only)
    assert frozen == reduce_independent_types(pins, partition)
    assert frozen == {partition.type_of[2]}


def test_categories_no_precoloring():
    # three vertices use at most three of the four interchangeable colors;
    # a budget below n lists every color
    for budget, colors in ((4, (1, 2, 3)), (2, (1, 2))):
        inst = PrecolorInstance(complete_graph(3), {}, budget)
        cats = _categories(inst, compute_type_partition(inst.graph))
        assert len(cats) == 1
        assert cats[0].type_set == frozenset()
        assert cats[0].colors == colors


def test_categories_group_by_pinned_types():
    # colors 1 and 2 pinned inside the clique type; color 3 free
    inst = PrecolorInstance(complete_graph(4), {0: 1, 1: 2}, 3)
    cats = _categories(inst, compute_type_partition(inst.graph))
    assert [c.colors for c in cats] == [(3,), (1, 2)]
    assert cats[1].type_set == frozenset({0})


def test_categories_on_c4_with_pinned_diagonal():
    inst = PrecolorInstance(Graph.from_edges(4, C4_EDGES), {0: 1, 2: 2}, 2)
    cats = _categories(inst, compute_type_partition(inst.graph))
    assert [(set(c.type_set), c.color_count) for c in cats] == [
        (set(), 0),
        ({0}, 2),
    ]


def test_ilp_k3_one_pinned_is_feasible():
    inst = PrecolorInstance(complete_graph(3), {0: 1}, 3)
    frozen, partition, h = _reduced(inst)
    cats = _categories(inst, partition)
    problem, subcats = build_precolor_ilp(frozen, cats, h)
    solution = solve_feasibility(problem)
    assert solution is not None
    # all three colors occupy the single clique type
    assert sum(solution.values) == 3


def test_ilp_c4_diagonal_two_colors_infeasible():
    inst = PrecolorInstance(Graph.from_edges(4, C4_EDGES), {0: 1, 2: 2}, 2)
    frozen, partition, h = _reduced(inst)
    cats = _categories(inst, partition)
    problem, _ = build_precolor_ilp(frozen, cats, h)
    assert solve_feasibility(problem) is None


def test_ilp_c4_diagonal_three_colors_feasible():
    inst = PrecolorInstance(Graph.from_edges(4, C4_EDGES), {0: 1, 2: 2}, 3)
    report = solve_precolor(inst)
    assert report.answer
    assert report.witness.colors == (1, 3, 2, 3)  # forced: 3 on the other type


def test_bipartite_two_colors():
    assert solve_precolor(
        PrecolorInstance(Graph.from_edges(4, C4_EDGES), {}, 2)
    ).answer


def test_triangle_needs_three():
    assert not solve_precolor(PrecolorInstance(complete_graph(3), {}, 2)).answer
    assert solve_precolor(PrecolorInstance(complete_graph(3), {}, 3)).answer


def test_untouched_clique_gets_a_bijection():
    # budget equal to the clique size: any valid answer uses every color once
    inst = PrecolorInstance(complete_graph(4), {}, 4)
    report = solve_precolor(inst)
    assert report.answer
    assert sorted(report.witness.colors) == [1, 2, 3, 4]
    validate_coloring_witness(inst, report.witness.colors)


def test_fully_precolored_instance():
    inst = PrecolorInstance(complete_graph(3), {0: 1, 1: 2, 2: 3}, 3)
    report = solve_precolor(inst)
    assert report.answer
    assert report.witness.colors == (1, 2, 3)


def test_precoloring_is_read_only():
    pins = {0: 1}
    inst = PrecolorInstance(path_graph(3), pins, 2)
    pins[1] = 1  # the instance keeps its own copy
    with pytest.raises(TypeError):
        inst.precolor[1] = 1
    assert inst.precolor == {0: 1}
    assert inst == PrecolorInstance(path_graph(3), {0: 1}, 2)
    wider = replace(inst, num_colors=3)
    assert wider.precolor == {0: 1} and wider.num_colors == 3
    assert solve_precolor(inst).answer


def test_agrees_with_oracle_on_random_instances():
    rng = random.Random(990)
    yes = 0
    for _ in range(150):
        inst = small_sweep_instance("precolor", rng)
        report = solve_precolor(inst)
        answer, _ = oracle_precolor(inst)
        assert report.answer == answer
        if report.answer:
            yes += 1
            validate_coloring_witness(inst, report.witness.colors)
    assert 20 < yes < 150


def test_reduction_preserves_the_answer():
    rng = random.Random(1001)
    for _ in range(60):
        inst = small_sweep_instance("precolor", rng, max_n=10)
        frozen, partition, _ = _reduced(inst)
        small = reference_reduced_instance(inst, partition, frozen)
        assert oracle_precolor(inst)[0] == oracle_precolor(small)[0]


def test_active_types_are_colored_rainbow():
    # on every class of a yes-instance: a clique carries distinct colors, a
    # non-frozen independent class one color, and the open vertices of a
    # frozen class the class's lowest pinned color
    rng = random.Random(1234)
    seen_yes = 0
    while seen_yes < 40:
        inst = small_sweep_instance("precolor", rng)
        report = solve_precolor(inst)
        if not report.answer:
            continue
        seen_yes += 1
        frozen, partition, _ = _reduced(inst)
        for t, members in enumerate(partition.classes):
            used = [report.witness.colors[v] for v in members]
            if partition.clique_flag[t]:
                assert len(set(used)) == len(used)
            elif t not in frozen:
                assert len(set(used)) == 1
            else:
                low = min(inst.precolor[v] for v in members if v in inst.precolor)
                for v in members:
                    if v not in inst.precolor:
                        assert report.witness.colors[v] == low


def test_frozen_types_route_exactly_their_pinned_colors():
    # a frozen type joins only the subcategories of categories holding it,
    # so routing a feasible count table as reconstruct_coloring does hands
    # it each color pinned in its class once, and no other color
    rng = random.Random(2200)
    sweep = [small_sweep_instance("precolor", rng) for _ in range(150)]
    dense = []
    for _ in range(150):
        k = rng.randint(1, 10)
        template = random_template(
            k,
            rng.randint(k, 30),
            rng.getrandbits(32),
            edge_prob=rng.random(),
            clique_prob=rng.random(),
        )
        dense.append(
            random_instance(
                "precolor",
                template,
                rng.getrandbits(32),
                num_colors=rng.randint(1, 8),
                precolor_fraction=rng.uniform(0.5, 1),
            )
        )
    checked = 0
    for inst in sweep + dense:
        frozen, partition, h = _reduced(inst)
        cats = _categories(inst, partition)
        problem, subcats = build_precolor_ilp(frozen, cats, h)
        solution = solve_feasibility(problem)
        if solution is None:
            continue
        routed = [[] for _ in range(h.num_types)]
        taken = [0] * len(cats)
        for sc, count in zip(subcats, solution.values):
            ci = sc.category_index
            for t in sc.type_set:
                routed[t].extend(cats[ci].colors[taken[ci] : taken[ci] + count])
            taken[ci] += count
        for t in frozen:
            members = partition.classes[t]
            pinned = {inst.precolor[v] for v in members if v in inst.precolor}
            assert sorted(routed[t]) == sorted(pinned)
            checked += 1
    assert checked > 100


def _brute_maximal(h, base, addable):
    """Maximal supersets of ``base`` by pairwise non-adjacent ``addable``
    types, by listing every independent subset."""
    independent = [
        frozenset(c)
        for r in range(len(addable) + 1)
        for c in combinations(addable, r)
        if not any(h.has_edge(a, b) for a, b in combinations(c, 2))
    ]
    return {
        base | s for s in independent if not any(s < other for other in independent)
    }


def test_subcategory_type_sets_are_independent_in_h():
    # with the frozen types settled, and with the peeled ones settled too:
    # settled types join a subcategory only through its category's types
    rng = random.Random(1100)
    projected = 0
    for _ in range(40):
        inst = small_sweep_instance("precolor", rng)
        frozen, partition, h, order = _peel(inst)
        cats = _categories(inst, partition)
        built = []
        for settled in (frozen, frozen.union(order)):
            _, subcats = build_precolor_ilp(settled, cats, h)
            built.append(subcats)
            for sc in subcats:
                types = sorted(sc.type_set)
                for i, a in enumerate(types):
                    for b in types[i + 1 :]:
                        assert not h.has_edge(a, b)
                assert cats[sc.category_index].type_set <= sc.type_set
            # per category: exactly the maximal independent supersets, once each
            for ci, cat in enumerate(cats):
                if cat.color_count == 0:
                    continue
                addable = [
                    t
                    for t in range(h.num_types)
                    if t not in cat.type_set
                    and t not in settled
                    and not any(h.has_edge(t, u) for u in cat.type_set)
                ]
                mine = [sc.type_set for sc in subcats if sc.category_index == ci]
                assert len(mine) == len(set(mine))
                assert set(mine) == _brute_maximal(h, cat.type_set, addable)
        projected += built[0] != built[1]
    assert projected >= 10


def test_maximal_independent_supersets_match_brute_force():
    rng = random.Random(1200)
    for _ in range(300):
        k = rng.randint(1, 8)
        density = rng.random()
        adj = [set() for _ in range(k)]
        for a, b in combinations(range(k), 2):
            if rng.random() < density:
                adj[a].add(b)
                adj[b].add(a)
        h = TypeGraph(k, tuple(tuple(sorted(s)) for s in adj), (1,) * k, (False,) * k)
        base = frozenset([rng.randrange(k)]) if rng.random() < 0.3 else frozenset()
        addable = [
            t
            for t in range(k)
            if t not in base and not adj[t] & base and rng.random() < 0.9
        ]
        complement = [
            ((1 << k) - 1) & ~(mask | 1 << t) for t, mask in enumerate(h.masks)
        ]
        got = [
            base.union(mask_members(clique))
            for clique in maximal_cliques(complement, sum(1 << t for t in addable))
        ]
        assert len(got) == len(set(got))
        assert set(got) == _brute_maximal(h, base, addable)


def _matching_instance(k):
    # k disjoint edges: each edge is one clique type, no two types adjacent
    graph = Graph.from_edges(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])
    return PrecolorInstance(graph, {0: 1}, 2)


def test_perfect_matching_compiles_one_subcategory_per_category():
    inst = _matching_instance(6)
    frozen, partition, h = _reduced(inst)
    problem, _ = build_precolor_ilp(frozen, _categories(inst, partition), h)
    assert problem.num_vars == 2
    # every edge type peels, so the solver builds no system at all
    report = solve_precolor(inst)
    assert report.nd == 6
    assert report.ilp_vars == 0
    assert report.answer
    inst = _matching_instance(60)
    report = solve_precolor(inst)
    assert report.nd == 60
    assert report.answer
    validate_coloring_witness(inst, report.witness.colors)


def test_huge_color_budget_solves_in_linear_time():
    # handing the million colors out one list pop at a time took O(r^2)
    inst = PrecolorInstance(Graph.from_edges(2, [(0, 1)]), {0: 1}, 10**6)
    report = solve_precolor(inst)
    assert report.answer
    validate_coloring_witness(inst, report.witness.colors)
    assert report.witness.colors == (1, 2)


def test_huge_budget_lists_at_most_n_plus_one_colors():
    # 30 disjoint edges, one pin: a coloring needs at most n fresh colors,
    # so the categories stay small however large the budget is
    inst = _matching_instance(30)
    inst = PrecolorInstance(inst.graph, inst.precolor, 10**6)
    cats = _categories(inst, compute_type_partition(inst.graph))
    assert sum(c.color_count for c in cats) <= inst.graph.n + 1
    report = solve_precolor(inst)
    assert report.answer
    validate_coloring_witness(inst, report.witness.colors)


def test_rows_follow_the_subcategories():
    # one = row per category with colors, in category order, with a 1 for
    # each of its subcategories; then one covering row per open type, with
    # a -1 for each subcategory containing it and minus its need: the size
    # of a clique, 1 for an independent type.  Open means not frozen, and
    # then also not peeled
    rng = random.Random(707)
    projected = 0
    for _ in range(200):
        k = rng.randint(1, 8)
        n = rng.randint(k, 24)
        template = random_template(
            k, n, rng.getrandbits(32), edge_prob=rng.random(), clique_prob=rng.random()
        )
        inst = random_instance(
            "precolor",
            template,
            rng.getrandbits(32),
            num_colors=rng.randint(1, 6),
            precolor_fraction=rng.random(),
        )
        frozen, partition, h, order = _peel(inst)
        cats = _categories(inst, partition)
        built = []
        for settled in (frozen, frozen.union(order)):
            problem, subcats = build_precolor_ilp(settled, cats, h)
            built.append(subcats)
            dense = []
            for ci, cat in enumerate(cats):
                if cat.color_count:
                    coeffs = [1 if sc.category_index == ci else 0 for sc in subcats]
                    dense.append((coeffs, "=", cat.color_count))
            for t in range(h.num_types):
                if t not in settled:
                    coeffs = [-1 if t in sc.type_set else 0 for sc in subcats]
                    need = h.size[t] if h.clique_flag[t] else 1
                    dense.append((coeffs, "<=", -need))
            expected = [
                (tuple((j, c) for j, c in enumerate(coeffs) if c), relation, rhs)
                for coeffs, relation, rhs in dense
            ]
            rows = [(c.terms, c.relation, c.rhs) for c in problem.constraints]
            assert rows == expected
        projected += built[0] != built[1]
    assert projected >= 40


def test_witness_outside_the_budget_names_its_first_vertex():
    inst = PrecolorInstance(path_graph(4), {}, 2)
    validate_coloring_witness(inst, (1, 2, 1, 2))
    for colors, v, c in (((1, 2, 3, 0), 2, 3), ((1, 0, 3, 2), 1, 0), ((2, 1, 2, 7), 3, 7)):
        with pytest.raises(ValueError, match=f"^vertex {v} colored outside 1..2$"):
            validate_coloring_witness(inst, colors)
    validate_coloring_witness(PrecolorInstance(Graph.from_edges(0, []), {}, 1), ())


def _peel(inst):
    """The frozen types, the partition, the type graph and the peel order."""
    frozen, partition, h = _reduced(inst)
    return frozen, partition, h, peel_types(h, frozen, _pins(inst, partition), inst.num_colors)


def _reference_peel(h, frozen, pinned, budget):
    """A peel order by the definition: passes over the active types,
    lowest first, re-summing each load, until a pass peels nothing."""
    need = [s if q else 1 for s, q in zip(h.size, h.clique_flag)]
    weight = [len(pinned.get(t, ())) if t in frozen else need[t] for t in range(h.num_types)]
    order = []
    while True:
        before = len(order)
        for t in range(h.num_types):
            if t in frozen or t in order:
                continue
            if budget - sum(weight[u] for u in h.adj[t]) >= need[t]:
                order.append(t)
                weight[t] = len(pinned.get(t, ()))
        if len(order) == before:
            return tuple(order)


def test_peel_order_is_a_valid_peel_sequence():
    # random type graphs, frozen sets, pins and budgets: the order peels
    # each active type at most once, each one meets the rule at its turn,
    # and it peels the same set as the pass-by-pass definition, also where
    # that definition needs a later pass
    rng = random.Random(2801)
    later_pass = 0
    for _ in range(1000):
        k = rng.randint(1, 10)
        density = rng.random()
        adj = [set() for _ in range(k)]
        for a, b in combinations(range(k), 2):
            if rng.random() < density:
                adj[a].add(b)
                adj[b].add(a)
        size = tuple(rng.randint(1, 4) for _ in range(k))
        clique = tuple(size[t] > 1 and rng.random() < 0.5 for t in range(k))
        h = TypeGraph(k, tuple(tuple(sorted(row)) for row in adj), size, clique)
        frozen = frozenset(t for t in range(k) if not clique[t] and rng.random() < 0.4)
        pinned = {}
        for t in range(k):
            most = size[t] if clique[t] else 3 * (t in frozen)
            colors = rng.sample(range(1, 9), rng.randint(t in frozen, most))
            if colors:
                pinned[t] = set(colors)
        budget = rng.randint(1, 8)
        order = peel_types(h, frozen, pinned, budget)
        reference = _reference_peel(h, frozen, pinned, budget)
        assert len(set(order)) == len(order)
        assert not frozen.intersection(order)
        assert set(order) == set(reference)
        need = [s if q else 1 for s, q in zip(size, clique)]
        weight = [len(pinned.get(t, ())) if t in frozen else need[t] for t in range(k)]
        for t in order:
            assert budget - sum(weight[u] for u in h.adj[t]) >= need[t]
            weight[t] = len(pinned.get(t, ()))
        later_pass += list(reference) != sorted(reference)
    assert later_pass > 20


def _mixed_sweep(seeds):
    # 12-vertex instances, within the oracle's reach, on which some active
    # types peel and others keep their covering rows
    for s in seeds:
        k = 3 + s % 5
        template = random_template(k, 12, s, edge_prob=0.6)
        yield random_instance(
            "precolor",
            template,
            s,
            num_colors=3 + s % 4,
            precolor_fraction=0.1 + (s % 4) / 10,
        )


def test_peeling_agrees_with_the_oracle():
    mixed_yes = 0
    for inst in _mixed_sweep(range(3000)):
        report = solve_precolor(inst)
        assert report.answer == oracle_precolor(inst)[0]
        if not report.answer:
            continue
        validate_coloring_witness(inst, report.witness.colors)
        frozen, partition, _, order = _peel(inst)
        if 0 < len(order) < partition.num_types - len(frozen):
            mixed_yes += 1
    assert mixed_yes >= 50


def test_dropping_peeled_rows_keeps_feasibility():
    # settling the peeled types (no covering row, out of the subcategory
    # pool) never decides feasibility; with every active type peeled, the
    # category equations alone hold
    rng = random.Random(2802)
    mixed = full = 0
    for _ in range(400):
        k = rng.randint(1, 9)
        template = random_template(
            k, rng.randint(k, 24), rng.getrandbits(32), edge_prob=rng.random()
        )
        inst = random_instance(
            "precolor",
            template,
            rng.getrandbits(32),
            num_colors=rng.randint(1, 12),
            precolor_fraction=rng.random(),
        )
        frozen, partition, h, order = _peel(inst)
        if not order:
            continue
        cats = _categories(inst, partition)
        reduced, _ = build_precolor_ilp(frozen.union(order), cats, h)
        full_system, _ = build_precolor_ilp(frozen, cats, h)
        feasible = solve_feasibility(reduced) is not None
        assert feasible == (solve_feasibility(full_system) is not None)
        if len(order) + len(frozen) == h.num_types:
            assert feasible
            assert all(c.relation == "=" for c in reduced.constraints)
            full += 1
        else:
            mixed += 1
    assert mixed > 40 and full > 40


def test_fully_peeled_probe_builds_no_system():
    # 30 template classes, 16 colors: every active type peels, where the
    # search over the full system ran past 30 s
    template = random_template(30, 45, 0, edge_prob=0.5)
    inst = random_instance("precolor", template, 0, num_colors=16, precolor_fraction=0.2)
    start = time.perf_counter()
    report = solve_precolor(inst)
    assert time.perf_counter() - start < 1
    assert report.answer
    assert report.ilp_vars == 0
    validate_coloring_witness(inst, report.witness.colors)
    compiled = compile_precolor(inst)
    assert compiled.categories == () and compiled.subcats == ()
    assert compiled.problem.num_vars == 0 and compiled.problem.constraints == ()


def test_peeled_types_leave_the_subcategory_pool():
    # C(40, 16, 1): two active types peel; with them in the subcategory
    # pool the system had 658 variables
    template = random_template(40, 60, 1, edge_prob=0.5)
    inst = random_instance("precolor", template, 1, num_colors=16, precolor_fraction=0.2)
    compiled = compile_precolor(inst)
    frozen = reduce_independent_types(compiled.pinned, compiled.partition)
    assert len(compiled.settled) - len(frozen) == 2
    assert compiled.problem.num_vars <= 482
    for sc in compiled.subcats:
        added = sc.type_set - compiled.categories[sc.category_index].type_set
        assert not added.intersection(compiled.settled)


def test_peeled_neighbours_count_their_pinned_colors():
    # the clique {0, 1} is pinned to 2 and 3 and peels; the frozen vertex 2
    # holds 1.  Vertex 3 sees all three colors, so weighing the peeled
    # clique at 0 would peel vertex 3 and answer yes
    graph = Graph.from_edges(4, [(0, 1), (0, 3), (1, 3), (2, 3)])
    inst = PrecolorInstance(graph, {0: 2, 1: 3, 2: 1}, 3)
    frozen, partition, _, order = _peel(inst)
    assert order == (partition.type_of[0],)
    assert partition.type_of[3] not in frozen
    assert not solve_precolor(inst).answer
    assert not oracle_precolor(inst)[0]
