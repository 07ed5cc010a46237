"""Finding a connected, exactly-colored subgraph (the motif problem).

The solver never enumerates vertex subsets.  It grows connected sets of
type classes, at most one class per motif vertex and only classes holding
a motif color, and asks a bipartite matching whether a one-vertex-per-class
skeleton with motif colors exists; a skeleton then grows greedily into a
full witness.

Run with: python3 demos/02_graph_motif.py
"""

from collections import Counter

from ndsolve import (
    MotifInstance,
    compute_type_partition,
    generate_from_template,
    random_instance,
    random_template,
    solve_motif,
)
from ndsolve.motif import color_tables, skeleton_exists

# Two joined independent classes: reds on one side, greens and a blue on
# the other.  Looking for {red, green, green}.
from ndsolve import Graph

g = Graph.from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
inst = MotifInstance(g, vertex_color=(1, 1, 2, 2, 3), motif=(1, 2, 2))
report = solve_motif(inst)
print("motif {r,g,g} in K_{2,3}:", "yes" if report.answer else "no")
print("  witness vertices:", report.witness.vertices)
print("  witness colors:", [inst.vertex_color[v] for v in report.witness.vertices])

# The skeleton subroutine is exposed: given the per-class color table, it
# picks one vertex per class of a class tuple, as {class: vertex}.
tables = color_tables(inst, compute_type_partition(g))
print("  skeleton over both classes:", skeleton_exists(inst, tables, (0, 1)))

# Colors may repeat across classes; the matching sorts out which class
# supplies which occurrence.  Here both classes must supply a red.
inst2 = MotifInstance(g, vertex_color=(1, 1, 1, 2, 2), motif=(1, 1, 2))
print("motif {r,r,g}:", "yes" if solve_motif(inst2).answer else "no")

# And a no-instance: there is only one red in the left class and the motif
# wants two reds in a connected piece avoiding the right class entirely.
inst3 = MotifInstance(g, vertex_color=(1, 2, 1, 1, 1), motif=(2, 2))
print("motif {g,g} with one green:", "yes" if solve_motif(inst3).answer else "no")

# Scaling: the class structure, not the vertex count, drives the work.
template = random_template(5, 1500, seed=1, edge_prob=0.6)
big = random_instance("motif", template, seed=2, colors=6, motif_size=10)
big_report = solve_motif(big)
print(
    f"random n=1500 instance: nd={big_report.nd}, "
    f"answer={'yes' if big_report.answer else 'no'} "
    f"in {big_report.elapsed_ms:.1f} ms"
)
if big_report.answer:
    used = Counter(big.vertex_color[v] for v in big_report.witness.vertices)
    assert used == big.motif_counts()
    print("  witness color multiset matches the motif exactly")
