"""Vertex-disjoint paths through the eyes of the type decomposition.

Any solvable instance has a solution whose paths each use at most one
internal vertex per type class, so paths collapse into categories
(endpoint types + the chain of classes crossed).  Only chordless chains,
where no class links a non-neighbour in the chain, need a category: any
other route contains one that uses no more of any class.  Counting paths
per category is a small integer program; its solution is then expanded
back into concrete paths.

Run with: python3 demos/03_disjoint_paths.py
"""

from ndsolve import (
    Graph,
    PathsInstance,
    build_type_graph,
    compute_type_partition,
    simplify_path,
    solve_paths,
)
from ndsolve.paths import build_paths_ilp
from ndsolve.ilp import format_problem

# The classic bottleneck: a star's center is needed by both leaf pairs.
star = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
inst = PathsInstance(star, ((1, 2), (3, 4)))
print("two leaf pairs through one center:",
      "yes" if solve_paths(inst).answer else "no")

partition = compute_type_partition(star)
type_graph = build_type_graph(star, partition)
problem, categories = build_paths_ilp(inst, partition, type_graph)
print("the integer system that proves it:")
print(format_problem(problem), end="")
print("(demand 2 through a class with 1 spare vertex)\n")

# Widen the bottleneck and the same system becomes feasible.
wide = Graph.from_edges(6, [(u, v) for u in (0, 5) for v in (1, 2, 3, 4)])
inst2 = PathsInstance(wide, ((1, 2), (3, 4)))
report = solve_paths(inst2)
print("same pairs, two centers:", "yes" if report.answer else "no")
for (s, t), path in zip(inst2.pairs, report.witness.paths):
    print(f"  {s} -> {t}: {list(path)}")

# Path simplification: a wandering path shrinks to one internal vertex
# per class without losing its endpoints.
k6 = Graph.from_edges(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
p6 = compute_type_partition(k6)
wandering = [0, 2, 3, 4, 5, 1]
print("\nwandering path in K_6:", wandering)
print("simplified:           ", list(simplify_path(k6, p6, wandering)))

# A mid-size run: 12 pairs across a layered graph, still instant.
layers = Graph.from_edges(
    60,
    [(u, v) for u in range(20) for v in range(20, 40)]
    + [(u, v) for u in range(20, 40) for v in range(40, 60)],
)
pairs = tuple((i, 59 - i) for i in range(12))
report = solve_paths(PathsInstance(layers, pairs))
print(
    f"\nlayered graph, 12 pairs: {'yes' if report.answer else 'no'} "
    f"({report.ilp_vars} count variables, {report.elapsed_ms:.1f} ms)"
)
