"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Shared sweeps are computed once per process and reused
(criterion 4 revalidates the witnesses produced by criteria 1 and 5).
"""

from __future__ import annotations

import random
import time
from functools import lru_cache

import pytest

import ndsolve as nd
from ndsolve.generate import random_instance, random_template, sparse_template
from ndsolve.ilp import satisfies, solve_feasibility
from ndsolve.precolor import pinned_colors
from helpers import (
    brute_min_type_partition,
    grid_feasible,
    random_ilp,
    random_labeled_graph,
    reference_reduced_instance,
    small_sweep_instance,
)

SOLVERS = {
    "motif": nd.solve_motif,
    "paths": nd.solve_paths,
    "precolor": nd.solve_precolor,
}
ORACLES = {
    "motif": nd.oracle_motif,
    "paths": nd.oracle_paths,
    "precolor": nd.oracle_precolor,
}


def _validate_witness(problem, instance, witness) -> bool:
    try:
        if problem == "motif":
            nd.validate_motif_witness(instance, witness.vertices)
        elif problem == "paths":
            partition = nd.compute_type_partition(instance.graph)
            nd.validate_paths_witness(
                instance, witness.paths, type_of=partition.type_of
            )
        else:
            nd.validate_coloring_witness(instance, witness.colors)
        return True
    except ValueError:
        return False


@lru_cache(maxsize=1)
def oracle_equivalence_sweep():
    """Criterion 1 workload: 500 seeded instances per problem."""
    start = time.perf_counter()
    results = {}
    for problem in ("motif", "paths", "precolor"):
        rng = random.Random(20_000 + len(problem))
        mismatches = 0
        yes = 0
        witness_failures = 0
        for _ in range(500):
            instance = small_sweep_instance(problem, rng, max_n=12)
            report = SOLVERS[problem](instance)
            answer, _ = ORACLES[problem](instance)
            if report.answer != answer:
                mismatches += 1
            if report.answer:
                yes += 1
                if not _validate_witness(problem, instance, report.witness):
                    witness_failures += 1
        results[problem] = {
            "mismatches": mismatches,
            "yes": yes,
            "witness_failures": witness_failures,
        }
    results["elapsed_s"] = time.perf_counter() - start
    return results


@lru_cache(maxsize=1)
def simplification_sweep():
    """Criterion 5 workload: 200 solvable instances, each solution simplified."""
    rng = random.Random(55_000)
    solved = 0
    failures = 0
    while solved < 200:
        instance = small_sweep_instance("paths", rng, max_n=12)
        if not instance.pairs:
            continue
        answer, witness = nd.oracle_paths(instance)
        if not answer:
            continue
        solved += 1
        partition = nd.compute_type_partition(instance.graph)
        simple = tuple(
            nd.simplify_path(instance.graph, partition, path) for path in witness
        )
        try:
            nd.validate_paths_witness(instance, simple, type_of=partition.type_of)
        except ValueError:
            failures += 1
    return {"solved": solved, "failures": failures}


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_oracle_equivalence():
    results = oracle_equivalence_sweep()
    total_mismatch = sum(results[p]["mismatches"] for p in SOLVERS)
    ok = total_mismatch == 0 and results["elapsed_s"] < 300.0
    _report(
        1,
        ok,
        "oracle equivalence 3x500 instances, "
        + ", ".join(
            f"{p}: {results[p]['mismatches']} mismatches ({results[p]['yes']} yes)"
            for p in SOLVERS
        )
        + f", swept in {results['elapsed_s']:.1f}s (< 300s)",
    )
    assert ok


def test_criterion_2_nd_correctness():
    networkx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g

    checked = 0
    bad = 0
    for nx_graph in graph_atlas_g():
        mapping = {u: i for i, u in enumerate(sorted(nx_graph.nodes()))}
        g = nd.Graph.from_edges(
            nx_graph.number_of_nodes(),
            [(mapping[u], mapping[v]) for u, v in nx_graph.edges()],
        )
        partition = nd.compute_type_partition(g)
        if partition.num_types != brute_min_type_partition(g):
            bad += 1
        if not nd.verify_partition(g, partition):
            bad += 1
        checked += 1

    rng = random.Random(808)
    sampled = 0
    for _ in range(1000):
        g = random_labeled_graph(rng, 8, rng.random())
        partition = nd.compute_type_partition(g)
        if partition.num_types != brute_min_type_partition(g):
            bad += 1
        if not nd.verify_partition(g, partition):
            bad += 1
        sampled += 1

    clique_nd = {
        n: nd.compute_type_partition(nd.complete_graph(n)).num_types
        for n in (2, 10, 100, 1000)
    }
    cliques_ok = all(v == 1 for v in clique_nd.values())
    ok = bad == 0 and cliques_ok
    _report(
        2,
        ok,
        f"nd minimum matches brute force on {checked} atlas graphs (n<=7) "
        f"and {sampled} random graphs at n=8; nd(K_n)={clique_nd}",
    )
    assert ok


def test_criterion_3_hierarchy_bound():
    rng = random.Random(33_000)
    kept = 0
    violations = 0
    while kept < 200:
        n = rng.randint(6, 15)
        g = random_labeled_graph(rng, n, rng.random())
        cover = None
        for budget in range(0, 13):
            cover = nd.compute_vertex_cover(g, budget)
            if cover is not None:
                break
        if cover is None:
            continue
        kept += 1
        k = nd.compute_type_partition(g).num_types
        if k > 2 ** len(cover) + len(cover):
            violations += 1
    ok = violations == 0
    _report(
        3, ok, f"k <= 2^c + c held on {kept}/200 graphs with cover size c <= 12"
    )
    assert ok


def test_criterion_4_witness_validity():
    sweep = oracle_equivalence_sweep()
    simp = simplification_sweep()
    failures = sum(sweep[p]["witness_failures"] for p in SOLVERS)
    failures += simp["failures"]
    yes_total = sum(sweep[p]["yes"] for p in SOLVERS) + simp["solved"]
    ok = failures == 0
    _report(
        4,
        ok,
        f"{yes_total} yes answers across criteria 1 and 5, "
        f"{failures} witness validation failures",
    )
    assert ok


def test_criterion_5_simplification_property():
    simp = simplification_sweep()
    ok = simp["solved"] == 200 and simp["failures"] == 0
    _report(
        5,
        ok,
        f"simplified solutions stayed valid and simple on "
        f"{simp['solved']}/200 solvable instances ({simp['failures']} failures)",
    )
    assert ok


def test_criterion_6_ilp_engine():
    rng = random.Random(66_000)
    mismatches = 0
    bad_assignments = 0
    for _ in range(300):
        problem = random_ilp(rng, max_vars=8, max_bound=6)
        got = solve_feasibility(problem)
        want = grid_feasible(problem)
        if (got is None) != (want is None):
            mismatches += 1
        if got is not None and not satisfies(problem, got.values):
            bad_assignments += 1
    ok = mismatches == 0 and bad_assignments == 0
    _report(
        6,
        ok,
        f"300 random systems (<=8 vars, bounds <=6): {mismatches} verdict "
        f"mismatches vs grid enumeration, {bad_assignments} bad assignments",
    )
    assert ok


def test_criterion_7_scaling_smoke():
    template = sparse_template(8, 10_000, seed=3)
    motif_instance = random_instance("motif", template, 11, colors=8, motif_size=16)
    motif_report = nd.solve_motif(motif_instance)
    motif_ok = motif_report.elapsed_ms < 10_000 and motif_report.nd <= 8

    template = sparse_template(4, 2_000, seed=5, cap=40)
    paths_instance = random_instance("paths", template, 13, num_pairs=20)
    paths_report = nd.solve_paths(paths_instance)
    paths_ok = paths_report.elapsed_ms < 10_000

    times = {}
    for n in (1_000, 10_000, 100_000):
        g = nd.generate_from_template(sparse_template(6, n, seed=1), 2)
        best = float("inf")
        for _ in range(3):
            tick = time.perf_counter()
            nd.compute_type_partition(g)
            best = min(best, time.perf_counter() - tick)
        times[n] = best
    linear_ok = (
        times[10_000] <= 3 * 10 * times[1_000]
        and times[100_000] <= 3 * 10 * times[10_000]
    )
    ok = motif_ok and paths_ok and linear_ok
    _report(
        7,
        ok,
        f"motif n=10^4 k=8 {motif_report.elapsed_ms:.0f}ms, "
        f"paths n=2000 |P|=20 {paths_report.elapsed_ms:.0f}ms (< 10s each); "
        f"nd decomposition {times[1_000]*1e3:.1f} / {times[10_000]*1e3:.1f} / "
        f"{times[100_000]*1e3:.1f} ms for n=10^3/10^4/10^5 "
        f"(within 3x of linear growth)",
    )
    assert ok


def test_criterion_8_reduction_safety():
    rng = random.Random(88_000)
    disagreements = 0
    for _ in range(200):
        instance = small_sweep_instance("precolor", rng, max_n=10)
        partition = nd.compute_type_partition(instance.graph)
        pinned = pinned_colors(instance, partition.type_of, partition.num_types)
        frozen = nd.reduce_independent_types(pinned, partition)
        reduced = reference_reduced_instance(instance, partition, frozen)
        if nd.oracle_precolor(instance)[0] != nd.oracle_precolor(reduced)[0]:
            disagreements += 1
    ok = disagreements == 0
    _report(
        8,
        ok,
        f"oracle(original) == oracle(reduced) on 200 instances "
        f"({disagreements} disagreements)",
    )
    assert ok
