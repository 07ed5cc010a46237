import random

import pytest

from ndsolve import (
    Graph,
    MotifInstance,
    ParseError,
    PathsInstance,
    PrecolorInstance,
    parse_instance,
    serialize_instance,
)
from helpers import small_sweep_instance


def test_parse_bare_graph():
    g = parse_instance("p graph 3\ne 1 2\ne 2 3\n")
    assert isinstance(g, Graph)
    assert g.n == 3
    assert list(g.edges()) == [(0, 1), (1, 2)]


def test_parse_comments_and_blanks():
    text = "# a comment\n\np graph 2   # trailing\ne 1 2\n"
    g = parse_instance(text)
    assert g.m == 1


def test_parse_motif():
    text = "p graph 3\ne 1 2\ne 2 3\nvcolor 1 1\nvcolor 2 2\nvcolor 3 1\nmotif 1 2\nmotif 2 1\n"
    inst = parse_instance(text)
    assert isinstance(inst, MotifInstance)
    assert inst.vertex_color == (1, 2, 1)
    assert inst.motif == (1, 1, 2)


def test_parse_paths_and_precolor():
    paths = parse_instance("p graph 4\ne 1 2\npair 1 3\npair 2 4\n")
    assert isinstance(paths, PathsInstance)
    assert paths.pairs == ((0, 2), (1, 3))

    pre = parse_instance("p graph 3\ne 1 2\ncolors 3\nprecolor 2 3\n")
    assert isinstance(pre, PrecolorInstance)
    assert pre.precolor == {1: 3}
    assert pre.num_colors == 3


@pytest.mark.parametrize(
    "text, match",
    [
        ("p graph 2\ne 1 1\n", "self-loop"),
        ("p graph 2\ne 1 2\ne 2 1\n", "duplicate edge"),
        ("p graph 2\ne 1 3\n", "out of range"),
        ("e 1 2\np graph 2\n", "header"),
        ("p graph 2\nfrob 1\n", "unknown directive"),
        ("p graph 2\npair 1 2\nvcolor 1 1\n", "mixes annotation families"),
        ("p graph 4\npair 1 2\npair 2 3\n", "two pairs"),
        ("p graph 4\nprecolor 1 1\nprecolor 2 1\ncolors 2\ne 1 2\n", "improper"),
        ("p graph 2\ncolors 2\nprecolor 1 5\n", "exceeds budget"),
        ("p graph 2\nprecolor 1 1\n", "colors <r>"),
        ("p graph 2\nvcolor 1 1\nmotif 1 1\n", "has no color"),
        ("p graph 2\nvcolor 1 1\nvcolor 2 1\n", "motif"),
        ("p graph 2\nvcolor 1 1\nvcolor 1 2\nmotif 1 1\n", "duplicate color"),
        ("p graph 1000000000000\ne 1 2\n", "exceeds the limit"),
        ("p graph 2\ne 1 x\n", "not an integer"),
        ("p graph 2\ne 0 1\n", "out of range"),
        ("p graph 3\ne 1 2 3\n", "edge line must be"),
        ("p graph 3\ne 1\n", "edge line must be"),
        ("p graph 2\ne 1 2\ne 2 1\n", r"duplicate edge \(1, 2\)"),
        ("# no header yet\ne 1 2\n", "header"),
        ("p graph 2\ne 1 2\ncolors 1000001\nprecolor 1 1\n", "color budget exceeds"),
        ("p graph 2\ncolors 10000000000\n", "color budget exceeds the limit"),
        ("p graph 2\nvcolor 1 1\nvcolor 2 1\nmotif 1 10000000\n", "motif size exceeds"),
        (
            "p graph 2\nvcolor 1 1\nvcolor 2 2\nmotif 1 600000\nmotif 2 400001\n",
            r"line 5: motif size exceeds the limit 1000000: 1000001",
        ),
    ],
)
def test_parse_errors(text, match):
    with pytest.raises(ParseError, match=match):
        parse_instance(text)


def test_edge_line_with_tabs_and_comment():
    plain = parse_instance("p graph 3\ne 1 2\ne 3 2\n")
    spaced = parse_instance("p graph 3\ne\t1 2   # first\n\te 3\t2\t#second\n")
    assert spaced == plain


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_instance("p graph 3\ne 1 2\ne 1 1\n")
    assert err.value.line == 3
    assert "line 3" in str(err.value)


def test_serialize_single_vertex_graph():
    assert serialize_instance(Graph.from_edges(1, [])) == "p graph 1\n"


def test_round_trip_k23():
    g = parse_instance("p graph 5\ne 1 3\ne 1 4\ne 1 5\ne 2 3\ne 2 4\ne 2 5\n")
    assert parse_instance(serialize_instance(g)) == g


def test_round_trip_random_instances():
    rng = random.Random(4242)
    done = 0
    while done < 100:
        problem = rng.choice(("motif", "paths", "precolor"))
        inst = small_sweep_instance(problem, rng)
        if isinstance(inst, PathsInstance) and not inst.pairs:
            continue  # a pairless instance serializes to a bare graph file
        assert parse_instance(serialize_instance(inst)) == inst
        done += 1


def test_empty_paths_instance_serializes_to_bare_graph():
    inst = PathsInstance(Graph.from_edges(2, [(0, 1)]), ())
    parsed = parse_instance(serialize_instance(inst))
    assert isinstance(parsed, Graph)
    assert parsed == inst.graph
