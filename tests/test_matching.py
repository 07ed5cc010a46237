import random

import pytest

from ndsolve import max_bipartite_matching
from helpers import exhaustive_max_matching


def test_perfect_matching_on_complete_2x2():
    size, match = max_bipartite_matching(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert size == 2
    assert sorted(match) == [0, 1]


def test_star_matches_one():
    size, match = max_bipartite_matching(1, 3, [(0, 0), (0, 1), (0, 2)])
    assert size == 1
    assert match[0] == 0  # first neighbor in input order


def test_no_edges():
    size, match = max_bipartite_matching(3, 3, [])
    assert size == 0
    assert match == [-1, -1, -1]


def test_rejects_out_of_range_edges():
    with pytest.raises(ValueError):
        max_bipartite_matching(1, 1, [(0, 1)])


def test_matching_is_consistent():
    rng = random.Random(123)
    for _ in range(50):
        nl, nr = rng.randint(1, 10), rng.randint(1, 10)
        edges = [
            (u, v) for u in range(nl) for v in range(nr) if rng.random() < 0.35
        ]
        size, match = max_bipartite_matching(nl, nr, edges)
        matched_rights = [v for v in match if v != -1]
        assert len(matched_rights) == len(set(matched_rights)) == size
        edge_set = set(edges)
        assert all((u, v) in edge_set for u, v in enumerate(match) if v != -1)


def test_size_equals_exhaustive_maximum():
    rng = random.Random(2024)
    for _ in range(100):
        nl, nr = rng.randint(1, 12), rng.randint(1, 12)
        edges = [
            (u, v) for u in range(nl) for v in range(nr) if rng.random() < 0.3
        ]
        size, _ = max_bipartite_matching(nl, nr, edges)
        assert size == exhaustive_max_matching(nl, nr, edges)


@pytest.mark.parametrize("n", [2001, 20001])
def test_long_augmenting_path_needs_no_recursion(n):
    # left i sees right i then right i + 1, so the first n - 1 left nodes take
    # rights 0..n-2; the last left node sees only right 0 and must shift every
    # earlier match along a path of length about 2n
    edges = [(i, j) for i in range(n - 1) for j in (i, i + 1)] + [(n - 1, 0)]
    size, match = max_bipartite_matching(n, n, edges)
    assert size == n
    assert match == list(range(1, n)) + [0]
