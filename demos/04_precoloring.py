"""Extending a partial proper coloring with a fixed color budget.

Independent classes reduce by type first (a pinned color floods its class,
a fully uncolored class needs one color).  The remaining question is
distributional: group colors by where the input pins them, decide how many
colors of each group go to each maximal set of pairwise non-adjacent
classes, ask every class that is not frozen for the colors it needs (one
per vertex of a clique, one for an independent class), and solve the
resulting integer system.  A class whose neighbours leave it enough colors
whatever they get is peeled first: it asks for nothing and is colored
greedily at the end.

Run with: python3 demos/04_precoloring.py
"""

from ndsolve import (
    Graph,
    PrecolorInstance,
    build_type_graph,
    compute_type_partition,
    reduce_independent_types,
    solve_precolor,
)
from ndsolve.precolor import compute_color_categories

# A 4-cycle with opposite corners pinned to different colors cannot be
# finished with 2 colors; the free corners neighbor both pinned ones.
c4 = Graph.from_edges(4, [(0, 1), (0, 3), (2, 1), (2, 3)])
pinned = {0: 1, 2: 2}
for budget in (2, 3):
    report = solve_precolor(PrecolorInstance(c4, pinned, budget))
    verdict = "yes" if report.answer else "no"
    print(f"C_4, corners pinned 1/2, budget {budget}: {verdict}")
    if report.answer:
        print("   full coloring:", list(report.witness.colors))

# The reduction works on types: a pinned leaf freezes its independent
# class (its open leaves take the pinned color, no other color is routed
# there); a class with nothing pinned needs one color, a clique one per
# vertex.  The covering rows of the integer system ask for these needs.
fan = Graph.from_edges(7, [(v, 6) for v in range(6)])
for pins, budget in (({0: 4}, 4), ({}, 2)):
    inst = PrecolorInstance(fan, pins, budget)
    partition = compute_type_partition(fan)
    frozen = reduce_independent_types(inst, partition)
    type_graph = build_type_graph(fan, partition)
    needs = {
        t: type_graph.size[t] if type_graph.clique_flag[t] else 1
        for t in range(partition.num_types)
        if t not in frozen
    }
    print(f"\nfan with pins {pins}:")
    print("   frozen classes:", sorted(frozen))
    print("   colors each other class needs:", needs)
    print("   full coloring:", list(solve_precolor(inst).witness.colors))

# Color categories are fixed by the input; the solver only has to split
# them among the maximal occupancy patterns.
k4 = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
inst3 = PrecolorInstance(k4, {0: 2, 1: 5}, 6)
for category in compute_color_categories(inst3, compute_type_partition(k4)):
    where = sorted(category.type_set) or "nowhere"
    print(f"   colors {category.colors} pinned in {where}")
report = solve_precolor(inst3)
print("K_4 with two pins, budget 6:", "yes" if report.answer else "no",
      "->", list(report.witness.colors))

# Peeling at work: the middle class needs one color, and its neighbours
# hold at most two of the 40, so the greedy bound colors it and no count
# variable is built, however large the classes are.
blocks = Graph.from_edges(
    300,
    [(u, v) for u in range(100) for v in range(100, 200)]
    + [(u, v) for u in range(100, 200) for v in range(200, 300)],
)
report = solve_precolor(PrecolorInstance(blocks, {0: 1, 299: 1}, 40))
print(
    f"\n300-vertex layered graph, budget 40: "
    f"{'yes' if report.answer else 'no'} "
    f"({report.ilp_vars} count variables, {report.elapsed_ms:.1f} ms)"
)
