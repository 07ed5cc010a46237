import random

import pytest

from ndsolve import (
    MotifInstance,
    PathsInstance,
    PrecolorInstance,
    TypeTemplate,
    compute_type_partition,
    generate_from_template,
    random_instance,
    random_template,
    sparse_template,
)
from helpers import reference_generate_from_template


def test_single_clique_template_is_complete():
    t = TypeTemplate(sizes=(5,), clique=(True,), edges=())
    g = generate_from_template(t, 0)
    assert g.n == 5 and g.m == 10
    assert compute_type_partition(g).num_types == 1


def test_bipartite_template_is_k23():
    t = TypeTemplate(sizes=(2, 3), clique=(False, False), edges=((0, 1),))
    g = generate_from_template(t, 1)
    assert g.n == 5 and g.m == 6
    p = compute_type_partition(g)
    assert sorted(len(c) for c in p.classes) == [2, 3]


def test_template_validation():
    with pytest.raises(ValueError):
        TypeTemplate(sizes=(), clique=(), edges=())
    with pytest.raises(ValueError):
        TypeTemplate(sizes=(1, 0), clique=(False, False), edges=())
    with pytest.raises(ValueError):
        TypeTemplate(sizes=(1, 1), clique=(False,), edges=())
    with pytest.raises(ValueError):
        TypeTemplate(sizes=(2,), clique=(False,), edges=((0, 0),))
    with pytest.raises(ValueError):
        TypeTemplate(sizes=(1, 1), clique=(False, False), edges=((0, 1), (1, 0)))
    with pytest.raises(ValueError, match=r"template edge \(0, 2\) out of range"):
        TypeTemplate(sizes=(1, 1), clique=(False, False), edges=((0, 2),))
    for make_template in (random_template, sparse_template):
        with pytest.raises(ValueError, match="at least one vertex per class"):
            make_template(4, 3, 0)
        for num_types, n in ((4, 3), (0, 3), (-1, 0)):
            with pytest.raises(ValueError, match=rf"1\.\.{n} classes: {num_types}$"):
                make_template(num_types, n, 0)


def test_generation_is_deterministic():
    t = random_template(4, 12, seed=7)
    assert generate_from_template(t, 7) == generate_from_template(t, 7)
    assert random_template(4, 12, seed=7) == random_template(4, 12, seed=7)


def test_generated_nd_never_exceeds_template_classes():
    rng = random.Random(7)
    for _ in range(60):
        k = rng.randint(1, 5)
        n = rng.randint(k, 14)
        t = random_template(k, n, rng.getrandbits(32))
        g = generate_from_template(t, rng.getrandbits(32))
        assert compute_type_partition(g).num_types <= k


def test_four_equal_classes_random_joins():
    rng = random.Random(7)
    t = TypeTemplate(
        sizes=(3, 3, 3, 3),
        clique=tuple(rng.random() < 0.5 for _ in range(4)),
        edges=tuple(
            (a, b) for a in range(4) for b in range(a + 1, 4) if rng.random() < 0.5
        ),
    )
    g = generate_from_template(t, 7)
    assert compute_type_partition(g).num_types <= 4


def test_sparse_template_stays_sparse():
    t = sparse_template(6, 5000, seed=3, cap=16)
    g = generate_from_template(t, 3)
    assert g.n == 5000
    assert g.m <= 5000 * 16 + (6 * 16) ** 2


def test_sparse_template_halves_small_classes_that_leave_no_room():
    # 7 small classes of up to 16 vertices cannot fit in 10 vertices, so
    # their sizes are halved until the large class keeps at least one
    t = sparse_template(8, 10, seed=0)
    assert t.num_types == 8 and t.num_vertices == 10
    assert min(t.sizes) >= 1


def test_random_instance_rejects_infeasible_requests():
    t = TypeTemplate(sizes=(3,), clique=(True,), edges=())
    with pytest.raises(ValueError, match="distinct vertices"):
        random_instance("paths", t, 0, num_pairs=2)
    with pytest.raises(ValueError, match="palette"):
        random_instance("motif", t, 0, colors=40)
    with pytest.raises(ValueError, match="motif size 4 infeasible for 3 vertices"):
        random_instance("motif", t, 0, motif_size=4)
    with pytest.raises(ValueError, match="unknown problem"):
        random_instance("hamilton", t, 0)
    for fraction in (-1, 1.01, float("nan")):
        with pytest.raises(ValueError, match=f"precolor fraction .*: {fraction}$"):
            random_instance("precolor", t, 0, precolor_fraction=fraction)


def test_random_template_rejects_probabilities_outside_0_1():
    for params in ({"edge_prob": 3}, {"edge_prob": float("nan")}, {"clique_prob": -2}):
        [value] = params.values()
        with pytest.raises(ValueError, match=f"probability must be in .*: {value}$"):
            random_template(3, 6, 0, **params)


def test_random_instances_are_valid_across_many_seeds():
    rng = random.Random(2)
    types = {"motif": MotifInstance, "paths": PathsInstance, "precolor": PrecolorInstance}
    for seed in range(500):
        problem = ("motif", "paths", "precolor")[seed % 3]
        k = rng.randint(1, 4)
        n = rng.randint(max(k, 2), 12)
        template = random_template(k, n, seed)
        inst = random_instance(problem, template, seed)
        # construction runs the validators; only the type remains to check
        assert isinstance(inst, types[problem])


def test_paths_instance_has_distinct_terminals():
    t = random_template(2, 8, seed=11)
    inst = random_instance("paths", t, 11, num_pairs=3)
    assert len(set(inst.terminals())) == 6


def _row_owners(graph):
    """Per vertex, the lowest vertex holding the very same row object."""
    first = {}
    return [first.setdefault(id(row), v) for v, row in enumerate(graph.adj)]


def test_rows_from_classes_match_the_edge_list_generator():
    rng = random.Random(19)
    cases = []
    for _ in range(4000):
        k = rng.randint(1, 10)
        n = rng.randint(k, 40)
        edge_prob, clique_prob = rng.random(), rng.random()
        template = random_template(k, n, rng.getrandbits(32), edge_prob, clique_prob)
        cases.append((template, rng.getrandbits(32)))
    for k, n in ((6, 5000), (8, 10000), (4, 2000)):
        cases.append((sparse_template(k, n, seed=3), 3))
    for template, seed in cases:
        got = generate_from_template(template, seed)
        want = reference_generate_from_template(template, seed)
        assert got == want
        assert _row_owners(got) == _row_owners(want)
