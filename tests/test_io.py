import random
import time
import tracemalloc

import pytest

from ndsolve import (
    Graph,
    MotifInstance,
    ParseError,
    PathsInstance,
    PrecolorInstance,
    complete_bipartite,
    complete_graph,
    parse_instance,
    serialize_instance,
)
from ndsolve.io import _SLICE, _parse, _run_keyword, _slices
from helpers import (
    random_labeled_graph,
    reference_from_edges,
    reference_parse_instance,
    reference_serialize_instance,
    small_sweep_instance,
    star_plus_path_edges,
)


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
        ("p graph 2\nvcolor 1\n", "line 2: vertex color line must be 'vcolor <v> <c>'"),
        ("p graph 2\nvcolor 1 1 1\n", "vertex color line must be 'vcolor <v> <c>'"),
        ("p graph 2\nmotif 1\n", "line 2: motif line must be 'motif <c> <count>'"),
        ("p graph 2\nmotif 1 1 1\n", "motif line must be 'motif <c> <count>'"),
        ("p graph 2\npair 1\n", "line 2: pair line must be 'pair <s> <t>'"),
        ("p graph 2\npair 1 2 1\n", "pair line must be 'pair <s> <t>'"),
        ("p graph 2\nprecolor 1\n", "line 2: precolor line must be 'precolor <v> <c>'"),
        ("p graph 2\nprecolor 1 1 1\n", "precolor line must be 'precolor <v> <c>'"),
        ("p graph 2\ncolors\n", "line 2: color budget line must be 'colors <r>'"),
        ("p graph 2\ncolors 1 2\n", "color budget line must be 'colors <r>'"),
        ("p graph 2\nvcolor 1 0\n", "line 2: color must be positive: 0"),
        ("p graph 2\nmotif 1 0\n", "line 2: motif count must be positive: 0"),
        ("p graph 2\nmotif 1 x\n", "line 2: count is not an integer: 'x'"),
        (
            "p graph 2\ncolors 2\nprecolor 1 1\nprecolor 1 2\n",
            "line 4: duplicate precolor for vertex 1",
        ),
        (
            "p graph 2\nmotif 1 1\nmotif 1 2\n",
            "line 3: duplicate motif entry for color 1",
        ),
        ("p graph 2\ncolors 2\ncolors 3\n", "line 3: duplicate 'colors' line"),
        ("p graph 2\npair 1 1\n", "line 2: terminal pair repeats vertex 1"),
        ("", "missing 'p graph <n>' header"),
        ("# a comment\n\n", "missing 'p graph <n>' header"),
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


def test_serialize_rejects_what_is_not_an_instance():
    with pytest.raises(TypeError, match="cannot serialize object"):
        serialize_instance(object())


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


def test_serializer_matches_the_reference():
    rng = random.Random(47)
    empty = Graph.from_edges(0, [])
    isolated = Graph.from_edges(6, [(1, 4)])
    cases = [
        empty,
        MotifInstance(empty, (), (1,)),
        PathsInstance(empty, ()),
        PrecolorInstance(empty, {}, 1),
        isolated,
        Graph.from_edges(3, []),
        PathsInstance(isolated, ()),  # no pairs: written as its bare graph
        PathsInstance(isolated, ((0, 5), (2, 3))),
        MotifInstance(isolated, (2, 1, 1, 3, 2, 1), (1, 2, 2)),
        PrecolorInstance(isolated, {1: 2, 4: 1, 5: 2}, 3),
        complete_graph(7),
        PrecolorInstance(complete_graph(5), {0: 5, 3: 1}, 5),
        complete_bipartite(2, 300),
        random_labeled_graph(rng, 200, 0.05),
    ]
    for trial in range(300):
        problem = ("graph", "motif", "paths", "precolor")[trial % 4]
        if problem == "graph":
            cases.append(random_labeled_graph(rng, rng.randint(0, 15), rng.random()))
        else:
            cases.append(small_sweep_instance(problem, rng))
    for inst in cases:
        assert serialize_instance(inst) == reference_serialize_instance(inst)


def _sparse_graph(rng, n, m):
    """Random graph with n vertices and m distinct edges."""
    edges = set()
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, sorted(edges))


def _longer_than_a_slice(rng):
    g = _sparse_graph(rng, 1500, 12000)
    text = serialize_instance(g)
    assert len(text) > 1.5 * _SLICE
    return g, text


def test_independent_twins_share_one_row():
    # K_{2,3}: each side is an independent type, so its members' rows are equal
    g = parse_instance("p graph 5\ne 1 3\ne 1 4\ne 1 5\ne 2 3\ne 2 4\ne 2 5\n")
    assert g.adj[0] is g.adj[1]
    assert g.adj[2] is g.adj[3] is g.adj[4]


def test_adjacency_holds_one_int_object_per_vertex():
    # ids above 256 lie outside the interpreter's cache of small ints, so
    # every parsed token would otherwise be an object of its own; the text
    # spans several slices, so most edges arrive in runs
    text = serialize_instance(_sparse_graph(random.Random(5), 2000, 20000))
    assert len(text) > 3 * _SLICE
    g = parse_instance(text)
    entries = [v for row in g.adj for v in row]
    assert len({id(v) for v in entries}) == len(set(entries))


def test_bad_line_in_a_later_slice_reports_its_line_number():
    rng = random.Random(17)
    _, text = _longer_than_a_slice(rng)
    lines = text.splitlines()
    offset = 0
    for bad, line in enumerate(lines):
        offset += len(line) + 1
        if offset > 1.2 * _SLICE:
            break
    lines[bad] = "e 7 x"
    broken = "\n".join(lines) + "\n"
    with pytest.raises(ParseError) as err:
        parse_instance(broken)
    assert err.value.line == bad + 1
    assert str(err.value) == f"line {bad + 1}: vertex id is not an integer: 'x'"
    with pytest.raises(ParseError) as ref:
        reference_parse_instance(broken)
    assert (str(ref.value), ref.value.line) == (str(err.value), err.value.line)


def test_crlf_and_cr_text_parse_like_lf_text():
    rng = random.Random(23)
    g, text = _longer_than_a_slice(rng)
    text += "pair 1 2\npair 3 4\n"
    expected = parse_instance(text)
    assert expected == PathsInstance(g, ((0, 1), (2, 3)))
    for newline in ("\r\n", "\r"):
        assert parse_instance(text.replace("\n", newline)) == expected


def test_round_trip_graph_longer_than_a_slice():
    g, text = _longer_than_a_slice(random.Random(29))
    assert parse_instance(text) == g


_BAD_TOKENS = ("0", "x", "+2", "1_0", "-1", "1.0", "", "01", "\u0663")


def _mutate(rng, text, n):
    """Apply one to three line edits, then join with a random newline."""
    lines = text.split("\n")
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(7)
        i = rng.randrange(len(lines))
        if op == 0:  # duplicated line
            lines.insert(i, lines[rng.randrange(len(lines))])
        elif op == 1:  # swapped lines
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == 2:  # blank line
            lines.insert(i, rng.choice(("", "  ", "\t")))
        elif op == 3:  # tabs
            lines[i] = lines[i].replace(" ", "\t")
        elif op == 4:  # comment
            lines[i] += rng.choice((" # note", "#", "\t# e 1 1"))
        elif op == 5:  # bad token
            tokens = lines[i].split()
            if tokens:
                tokens[rng.randrange(len(tokens))] = rng.choice(_BAD_TOKENS)
                lines[i] = " ".join(tokens)
        else:  # self-loop
            v = rng.randint(1, max(n, 1))
            lines.insert(i, f"e {v} {v}")
    return rng.choice(("\n", "\n", "\r\n", "\r")).join(lines)


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return (str(exc), exc.line)


def test_parser_matches_the_reference_on_mutated_instances():
    rng = random.Random(2024)
    big = [
        _sparse_graph(rng, 1200, 8000),
        PathsInstance(_sparse_graph(rng, 1000, 7000), ((0, 1), (5, 9))),
        MotifInstance(
            _sparse_graph(rng, 1000, 7000),
            tuple(rng.randint(1, 3) for _ in range(1000)),
            (1, 2, 2),
        ),
    ]
    for trial in range(1230):
        if trial < 30:
            inst = big[trial % len(big)]
        else:
            inst = small_sweep_instance(rng.choice(("motif", "paths", "precolor")), rng)
        graph = inst if isinstance(inst, Graph) else inst.graph
        text = serialize_instance(inst)
        if trial % 10:
            text = _mutate(rng, text, graph.n)
        assert _outcome(parse_instance, text) == _outcome(reference_parse_instance, text)


# Texts of several slices whose middle slices are runs of one keyword.
_RUNS_N = 16000


@pytest.fixture(scope="module")
def run_texts():
    rng = random.Random(31)
    g = _sparse_graph(rng, _RUNS_N, 16000)
    coloring = [0] * g.n  # greedy proper coloring, so that every pin is valid
    for v in range(g.n):
        used = {coloring[w] for w in g.adj[v]}
        coloring[v] = min(c for c in range(1, len(used) + 2) if c not in used)
    motif = MotifInstance(g, tuple(rng.randint(1, 3) for _ in range(g.n)), (1, 2))
    pinned = PrecolorInstance(g, dict(enumerate(coloring)), max(coloring))
    return {"motif": serialize_instance(motif), "precolor": serialize_instance(pinned)}


def _runs(text, keyword):
    """(first line index, line count) of each slice of text parsed as a run."""
    found, first = [], 0
    for chunk in _slices(text):
        count = len(chunk.splitlines())
        if _run_keyword(chunk) == keyword:
            found.append((first, count))
        first += count
    return found


def _middle(text, keyword, nth):
    first, count = _runs(text, keyword)[nth]
    return first + count // 2


def _line_edit(edit):
    """A text edit from an edit of the text's line list."""
    def apply(text):
        lines = text.splitlines()
        edit(lines, text)
        return "\n".join(lines) + "\n"
    return apply


def _repeat(keyword):
    """Copy a line of the first run into the middle of the second."""
    def edit(lines, text):
        lines.insert(_middle(text, keyword, 1), lines[_middle(text, keyword, 0)])
    return _line_edit(edit)


def _replace(keyword, new):
    def edit(lines, text):
        lines[_middle(text, keyword, 0)] = new
    return _line_edit(edit)


def _rewrite(keyword, change):
    """Rewrite the line in the middle of the first run of keyword."""
    def edit(lines, text):
        i = _middle(text, keyword, 0)
        lines[i] = change(lines[i])
    return _line_edit(edit)


def _break(newline):
    def edit(lines, text):
        i = _middle(text, "e", 1)
        lines[i : i + 2] = [lines[i] + newline + lines[i + 1]]
    return _line_edit(edit)


def _edge_lines(edit):
    """A text edit from an edit of the list of edge lines, which it puts
    back in the edge lines' places."""
    def apply(lines, text):
        at = [i for i, line in enumerate(lines) if line.startswith("e ")]
        edges = [lines[i] for i in at]
        edit(edges)
        for i, line in zip(at, edges):
            lines[i] = line
    return _line_edit(apply)


@_edge_lines
def _shuffle_edges(edges):
    random.Random(37).shuffle(edges)


@_edge_lines
def _reverse_edges(edges):
    edges[:] = ["e {2} {1}".format(*line.split()) for line in edges]


@_line_edit
def _repeat_reversed_edge(lines, text):
    """Copy a line of the first edge run, endpoints swapped, into the second."""
    _, u, v = lines[_middle(text, "e", 0)].split()
    lines.insert(_middle(text, "e", 1), f"e {v} {u}")


@_line_edit
def _precolor_after_vcolor(lines, text):
    """Insert exactly one slice of precolor lines right after a vcolor run."""
    first, count = _runs(text, "vcolor")[0]
    block, size = [], 0
    while size <= _SLICE:
        block.append(f"precolor {len(block) + 1} 1")
        size += len(block[-1]) + 1
    lines[first + count : first + count] = block


_BAD_IDS = ("0", str(_RUNS_N + 1), "01", "+1", "1_0", "\u0663")
_RUN_CASES = {
    "unedited": ("motif", lambda text: text),
    "edge repeated across runs": ("motif", _repeat("e")),
    "edge repeated across runs, then a bad line": (
        "motif",
        lambda text: _repeat("e")(text) + "frob\n",
    ),
    "edges shuffled": ("motif", _shuffle_edges),
    "every edge written 'e v u' with v > u": ("motif", _reverse_edges),
    "edge repeated reversed across runs": ("motif", _repeat_reversed_edge),
    "self-loop in a run": ("motif", _replace("e", "e 77 77")),
    "keyword glued to its first number in a run": ("motif", _replace("e", "e1 2 3")),
    "third number in a run": ("motif", _replace("e", "e 1 2 3")),
    # unless every line must start with 'e ', the 3 joins the 2: (1, 23), (4, 5)
    "digits before the keyword in a run": ("motif", _replace("e", "e 1 2\n3e 4 5")),
    "tab separator in a run": (
        "motif",
        _rewrite("e", lambda line: line.replace(" ", "\t", 1)),
    ),
    "crlf line end in a run": ("motif", _rewrite("e", lambda line: line + "\r")),
    "blank line in an edge run": ("motif", _rewrite("e", lambda line: line + "\n")),
    "digits after the last newline": ("precolor", lambda text: text + "55"),
    "edge line cut in two in a run": ("motif", _replace("e", "e 77\n78")),
    **{
        f"vertex id {token!r} in an edge run": ("motif", _replace("e", f"e {token} 5"))
        for token in _BAD_IDS
    },
    **{
        f"vertex id {token!r} in a vcolor run": (
            "motif",
            _replace("vcolor", f"vcolor {token} 2"),
        )
        for token in _BAD_IDS
    },
    "color 0 in a vcolor run": ("motif", _replace("vcolor", "vcolor 5 0")),
    # int() refuses more than 4300 digits on Python versions that cap them
    "color of 5000 digits in a vcolor run": (
        "motif",
        _replace("vcolor", "vcolor 5 " + "1" * 5000),
    ),
    "vcolor repeated across runs": ("motif", _repeat("vcolor")),
    "precolor repeated across runs": ("precolor", _repeat("precolor")),
    "precolor run after a vcolor run": ("motif", _precolor_after_vcolor),
    "run broken by \\x0b": ("motif", _break("\x0b")),
    "run broken by \\u2028": ("motif", _break("\u2028")),
    "crlf": ("precolor", lambda text: text.replace("\n", "\r\n")),
}


@pytest.mark.parametrize("case", list(_RUN_CASES))
def test_runs_match_the_reference(run_texts, case):
    family, edit = _RUN_CASES[case]
    assert len(run_texts[family]) > 3 * _SLICE
    text = edit(run_texts[family])
    assert _outcome(parse_instance, text) == _outcome(reference_parse_instance, text)


_RUN_TOKENS = ("0", "01", "+1", "1e3", "\u0663")
_RUN_SEPARATORS = ("\t", "\r", "\x0b")


def _mutate_runs(rng, text):
    """One to three line edits: a word replaced by a token a run must not
    take, a space replaced by another separator, a number added or dropped,
    a line repeated or blanked."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(1, len(lines))
        tokens = lines[i].split(" ")
        op = rng.randrange(6)
        if op == 0:
            tokens[rng.randrange(len(tokens))] = rng.choice(_RUN_TOKENS)
            lines[i] = " ".join(tokens)
        elif op == 1:
            lines[i] = lines[i].replace(" ", rng.choice(_RUN_SEPARATORS), 1)
        elif op == 2:
            lines[i] += " 7"
        elif op == 3:
            lines[i] = " ".join(tokens[:-1])
        elif op == 4:
            lines.insert(i, lines[rng.randrange(1, len(lines))])
        else:
            lines[i] = ""
    return "\n".join(lines) + "\n"


def test_mutated_long_texts_match_the_reference(run_texts):
    rng = random.Random(41)
    for trial in range(32):
        text = _mutate_runs(rng, run_texts[("motif", "precolor")[trial % 2]])
        assert _outcome(parse_instance, text) == _outcome(reference_parse_instance, text)


@pytest.mark.parametrize(
    "chunk, keyword",
    [
        ("e 1 2\ne 30 4\n", "e"),
        ("vcolor 7 1\n", "vcolor"),
        ("precolor 12 3\nprecolor 13 3\n", "precolor"),
        ("e 1 2\n55", ""),  # digits after the last newline
        ("e 1 2\n5e 1 2\n", ""),  # a line that does not start with the keyword
        ("e1 2 3\ne 1 2\n", ""),
        ("e 1 2\nvcolor 1 2\n", ""),
        ("motif 1 2\n", ""),
        ("e 1 2 3\n", ""),
        ("e 1\u0663 2\n", ""),
        ("e 1 2\r\n", ""),
    ],
)
def test_run_check(chunk, keyword):
    assert _run_keyword(chunk) == keyword


def test_long_texts_are_sliced_at_lines_and_keyword_changes(run_texts):
    text = run_texts["motif"]
    lines = text.splitlines()
    for i in range(5, len(lines), 997):  # a comment, then a blank line
        lines[i] += " # note"
        lines.insert(i + 1, "")
    third = sum(map(len, list(_slices(text))[:3]))
    edited = [
        "\n".join(lines) + "\n",
        run_texts["precolor"].replace("\n", "\r\n"),
        text[:third] + "#no-space-within-a-keyword\n" + text[third:],
    ]
    for long in [*run_texts.values(), *edited]:
        slices = list(_slices(long))
        assert "".join(slices) == long
        assert all(slices)
        # the last line of a slice starts within _SLICE characters
        assert all(s.rfind("\n", 0, len(s) - 1) + 1 <= _SLICE for s in slices)
    assert any(s.startswith("#no-space") for s in _slices(edited[-1]))
    for long in run_texts.values():
        header, *rest = _slices(long)
        assert header == long[: long.index("\n") + 1]
        # every slice is a run but the header and the lone 'motif' and
        # 'colors' lines, which come one keyword to a slice
        for s in rest:
            assert _run_keyword(s) or {line.split()[0] for line in s.splitlines()} in (
                {"motif"},
                {"colors"},
            )
    short = run_texts["motif"][:_SLICE]
    assert list(_slices(short)) == [short]


def test_one_unsorted_twin_row_matches_the_reference():
    # K_{2,m}: vertices 1 and 2 are twins.  Moving the edge (2, 3) to the
    # end leaves every row ascending except the row of vertex 2.
    n = 8000
    g = complete_bipartite(2, n - 2)
    lines = serialize_instance(g).splitlines()
    lines.remove("e 2 3")
    text = "\n".join(lines + ["e 2 3"]) + "\n"
    assert len(_runs(text, "e")) >= 2
    parsed = parse_instance(text)
    assert parsed == reference_parse_instance(text) == g
    assert parsed.adj[0] is parsed.adj[1]


_HUB_N = 50000


@pytest.fixture(scope="module")
def hub_text():
    """A serializer text: a star around vertex 1 plus a path through the
    leaves, so vertex 1 has degree n - 1."""
    return serialize_instance(Graph.from_edges(_HUB_N, star_plus_path_edges(_HUB_N)))


_HUB_CASES = {
    "duplicate edge as the last line": (
        _line_edit(lambda lines, text: lines.append("e 7 1")),
        "duplicate edge (1, 7)",
    ),
    "self-loop in the middle of a run": (
        _line_edit(lambda lines, text: lines.insert(_middle(text, "e", -1), "e 9 9")),
        "self-loop at vertex 9",
    ),
    "id above n in the middle of a run": (
        _line_edit(
            lambda lines, text: lines.insert(_middle(text, "e", -1), f"e 9 {_HUB_N + 1}")
        ),
        f"vertex id out of range 1..{_HUB_N}: {_HUB_N + 1}",
    ),
}


@pytest.mark.parametrize("case", list(_HUB_CASES))
def test_errors_in_a_text_with_a_hub_stay_fast(hub_text, case):
    # The strict pass tests each edge against its sets; a membership test
    # on a list would make this text quadratic in the hub's degree.
    edit, message = _HUB_CASES[case]
    text = edit(hub_text)
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    elapsed = time.perf_counter() - start
    assert str(err.value) == f"line {err.value.line}: {message}"
    assert _outcome(reference_parse_instance, text) == (str(err.value), err.value.line)
    assert elapsed < 5  # about 0.5 s; with a list per row, 20 s or more


def test_second_pass_does_not_hold_the_first_pass_rows():
    # the first pass meets the self-loop, so the text is parsed twice; its
    # neighbor lists must be freed before the second pass allocates sets
    text = "p graph 20000\ne 5 5\n"
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="self-loop"):
            _parse(text, False)
        strict = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with pytest.raises(ParseError, match="self-loop"):
            parse_instance(text)
        both = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert both < 1.2 * strict


def _traced_peak(fn, *args):
    """Peak bytes that tracemalloc sees while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("order", ["ordered", "shuffled"])
def test_write_path_holds_no_object_per_edge(order):
    # the set-based builder holds a set per vertex and the per-edge
    # serializer a line string per edge; rows of lists and one string per
    # row take well under that
    edges = star_plus_path_edges(_HUB_N)
    if order == "shuffled":
        random.Random(53).shuffle(edges)
    graph = Graph.from_edges(_HUB_N, edges)
    lean = _traced_peak(Graph.from_edges, _HUB_N, edges)
    assert lean <= 3 / 4 * _traced_peak(reference_from_edges, _HUB_N, edges)
    lean = _traced_peak(serialize_instance, graph)
    assert lean <= 2 / 3 * _traced_peak(reference_serialize_instance, graph)
