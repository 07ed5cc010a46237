import pytest

from ndsolve import (
    Graph,
    MotifInstance,
    PathsInstance,
    PrecolorInstance,
    SizeGuardError,
    complete_graph,
    oracle_motif,
    oracle_paths,
    oracle_precolor,
    path_graph,
    validate_coloring_witness,
    validate_motif_witness,
    validate_paths_witness,
)

C4_EDGES = [(0, 1), (0, 3), (2, 1), (2, 3)]


def test_motif_oracle_examples():
    yes, witness = oracle_motif(MotifInstance(complete_graph(3), (1, 2, 3), (1, 2)))
    assert yes
    validate_motif_witness(MotifInstance(complete_graph(3), (1, 2, 3), (1, 2)), witness)
    # the two red vertices of the path are not adjacent
    no, none = oracle_motif(MotifInstance(path_graph(3), (1, 2, 1), (1, 1)))
    assert not no and none is None
    # a motif larger than the graph has no witness
    assert oracle_motif(MotifInstance(path_graph(2), (1, 1), (1, 1, 1))) == (False, None)


def test_motif_oracle_size_guard():
    inst = MotifInstance(Graph.from_edges(16, []), (1,) * 16, (1,))
    with pytest.raises(SizeGuardError):
        oracle_motif(inst)


def test_paths_oracle_examples():
    inst = PathsInstance(complete_graph(4), ((0, 1), (2, 3)))
    yes, witness = oracle_paths(inst)
    assert yes
    validate_paths_witness(inst, witness)

    star = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    # both leaf-to-leaf paths would need the unique center
    assert not oracle_paths(PathsInstance(star, ((1, 2), (3, 4))))[0]

    assert oracle_paths(PathsInstance(complete_graph(3), ()))[0]


def test_paths_oracle_size_guards():
    big = Graph.from_edges(16, [])
    with pytest.raises(SizeGuardError):
        oracle_paths(PathsInstance(big, ()))
    k10 = complete_graph(10)
    pairs = tuple((2 * i, 2 * i + 1) for i in range(5))
    with pytest.raises(SizeGuardError):
        oracle_paths(PathsInstance(k10, pairs))


def test_precolor_oracle_examples():
    yes, witness = oracle_precolor(PrecolorInstance(complete_graph(3), {0: 1}, 3))
    assert yes
    validate_coloring_witness(PrecolorInstance(complete_graph(3), {0: 1}, 3), witness)
    assert not oracle_precolor(PrecolorInstance(complete_graph(3), {}, 2))[0]
    # both free corners neighbor both pinned corners
    inst = PrecolorInstance(Graph.from_edges(4, C4_EDGES), {0: 1, 2: 2}, 2)
    assert not oracle_precolor(inst)[0]


def test_precolor_oracle_size_guard():
    with pytest.raises(SizeGuardError):
        oracle_precolor(PrecolorInstance(Graph.from_edges(13, []), {}, 2))


def test_precolor_color_cap_does_not_change_answers():
    # huge budget, tiny graph: only pinned + fresh-per-vertex colors matter
    inst = PrecolorInstance(path_graph(3), {1: 9}, 16)
    yes, witness = oracle_precolor(inst)
    assert yes
    validate_coloring_witness(inst, witness)
