import argparse
import io
import json
import random
import re
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from ndsolve import solve_precolor
from ndsolve.cli import BENCH_COLUMNS, bench_cells, run
from ndsolve.generate import random_instance, random_template

DATA_DIR = Path(__file__).parent / "data"

K3_MOTIF = (
    "p graph 3\ne 1 2\ne 2 3\ne 1 3\n"
    "vcolor 1 1\nvcolor 2 2\nvcolor 3 3\nmotif 1 1\nmotif 2 1\n"
)
P4 = "p graph 4\ne 1 2\ne 2 3\ne 3 4\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_motif_json_report(tmp_path, capsys):
    path = _write(tmp_path, "k3.nd", K3_MOTIF)
    assert run(["motif", "--input", path, "--json", "--witness"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["problem"] == "motif"
    assert payload["answer"] == "yes"
    assert payload["stats"]["nd"] == 1
    assert payload["witness"] == [1, 2]
    assert "elapsed_ms" in payload["stats"]


def test_nd_prints_class_count(tmp_path, capsys):
    path = _write(tmp_path, "p4.nd", P4)
    assert run(["nd", "--input", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("k=4")
    assert "H edges:" in out


def test_nd_json(tmp_path, capsys):
    path = _write(tmp_path, "p4.nd", P4)
    assert run(["nd", "--input", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k"] == 4
    assert len(payload["classes"]) == 4
    assert payload["h_edges"] == [[0, 1], [1, 2], [2, 3]]


def test_text_report_lines(capsys):
    path = str(DATA_DIR / "paths-clique-yes.nd")
    assert run(["paths", "--input", path, "--witness", "--check"]) == 0
    out = re.sub(r"^elapsed_ms: \d+\.\d{3}$", "elapsed_ms: *", capsys.readouterr().out,
                 flags=re.M)
    assert out.splitlines() == [
        "answer: yes",
        "nd: 1",
        "ilp_vars: 1",
        "elapsed_ms: *",
        "witness: [[1, 2], [3, 4]]",
        "check: oracle=yes agree=True",
    ]


def test_runs_share_one_parser(monkeypatch, tmp_path, capsys):
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    path = _write(tmp_path, "p4.nd", P4)
    assert run(["nd", "--input", path]) == 0
    assert run(["paths", "--input", path, "--json"]) == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]


def test_overlapping_terminals_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "bad.nd", "p graph 4\ne 1 2\npair 1 2\npair 2 3\n")
    assert run(["paths", "--input", path]) == 2
    assert "error" in capsys.readouterr().err


def test_huge_header_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "huge.nd", "p graph 1000000000000\ne 1 2\n")
    assert run(["nd", "--input", path]) == 2
    assert "limit" in capsys.readouterr().err


def test_huge_counts_exit_2(tmp_path, capsys):
    colors = _write(tmp_path, "colors.nd", "p graph 2\ncolors 10000000\nprecolor 1 1\n")
    assert run(["precolor", "--input", colors]) == 2
    motif = _write(tmp_path, "motif.nd", "p graph 1\nvcolor 1 1\nmotif 1 10000000\n")
    assert run(["motif", "--input", motif]) == 2
    assert capsys.readouterr().err.count("exceeds the limit") == 2


def test_unknown_flag_exit_2(tmp_path, capsys):
    assert run(["motif", "--frobnicate"]) == 2
    assert run(["nosuchcommand"]) == 2
    capsys.readouterr()


def test_wrong_instance_kind_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "p4.nd", P4)
    assert run(["motif", "--input", path]) == 2
    capsys.readouterr()


def test_paths_accepts_bare_graph_as_empty_instance(tmp_path, capsys):
    path = _write(tmp_path, "p4.nd", P4)
    assert run(["paths", "--input", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["answer"] == "yes"


def test_oracle_paths_accepts_bare_graph_as_empty_instance(tmp_path, capsys):
    path = _write(tmp_path, "p4.nd", P4)
    assert run(["oracle", "paths", "--input", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["problem"] == "oracle-paths"
    assert payload["answer"] == "yes"


def test_check_flag_reports_agreement(tmp_path, capsys):
    path = _write(tmp_path, "k3.nd", K3_MOTIF)
    assert run(["motif", "--input", path, "--json", "--check"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["check"] == {"oracle_answer": "yes", "agree": True}


def test_check_flag_size_guard_exit_3(tmp_path, capsys):
    lines = ["p graph 16"]
    lines += [f"vcolor {v} 1" for v in range(1, 17)]
    lines += ["motif 1 1"]
    path = _write(tmp_path, "big.nd", "\n".join(lines) + "\n")
    assert run(["motif", "--input", path, "--check"]) == 3
    capsys.readouterr()


def test_oracle_subcommand(tmp_path, capsys):
    path = _write(tmp_path, "k3.nd", K3_MOTIF)
    assert run(["oracle", "motif", "--input", path, "--json", "--witness"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["problem"] == "oracle-motif"
    assert payload["answer"] == "yes"
    assert payload["witness"] == [1, 2]


def test_gen_output_parses_and_solves(tmp_path, capsys):
    out_path = str(tmp_path / "gen.nd")
    assert run([
        "gen", "precolor", "--k", "3", "--n", "9", "--seed", "4",
        "--output", out_path,
    ]) == 0
    assert run(["precolor", "--input", out_path, "--json", "--witness"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["answer"] in ("yes", "no")
    assert "ilp_vars" in payload["stats"]


def test_gen_is_deterministic(tmp_path, capsys):
    args = ["gen", "motif", "--k", "2", "--n", "8", "--seed", "9"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("problem", ["precolor", "paths"])
def test_dump_ilp_goes_to_stderr(problem, tmp_path, capsys):
    if problem == "paths":
        path = str(DATA_DIR / "paths-clique-yes.nd")
    else:
        path = _write(tmp_path, "pre.nd", "p graph 3\ne 1 2\ne 2 3\ncolors 2\n")
    assert run([problem, "--input", path, "--json", "--dump-ilp"]) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("vars ")
    assert json.loads(captured.out)["problem"] == problem  # report stays clean JSON


def test_missing_file_exit_2(capsys):
    assert run(["motif", "--input", "/nonexistent/file.nd"]) == 2
    capsys.readouterr()


def test_bench_table(capsys):
    assert run([
        "bench", "--problem", "precolor", "--k", "2,3", "--n", "20",
        "--seeds", "2",
    ]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].startswith("problem\tk\tn")
    assert len(out) == 3


def test_bench_empty_suite(capsys):
    assert run(["bench", "--problem", "motif", "--k", "", "--n", "10"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1  # header only
    assert out[0].split("\t") == list(BENCH_COLUMNS)


@pytest.mark.parametrize("oracle", [False, True], ids=["solve", "oracle"])
@pytest.mark.parametrize(
    "corpus_file", sorted(DATA_DIR.glob("*.nd")), ids=lambda p: p.name
)
def test_text_and_json_stats_agree(corpus_file, oracle, capsys):
    # both reports print SolveReport.stats() in its order: nd, ilp_vars when
    # a system was built (never for motif or an oracle), elapsed_ms
    problem = corpus_file.name.split("-")[0]
    argv = [*(["oracle"] if oracle else []), problem, "--input", str(corpus_file)]
    assert run(argv) == 0
    _, *lines = capsys.readouterr().out.splitlines()
    assert run([*argv, "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)["stats"]
    text = dict(line.split(": ") for line in lines)
    built = not oracle and problem != "motif"
    keys = ["nd", "ilp_vars", "elapsed_ms"] if built else ["nd", "elapsed_ms"]
    assert list(text) == list(stats) == keys
    for key in keys[:-1]:
        assert int(text[key]) == stats[key]
    assert re.fullmatch(r"\d+\.\d{3}", text["elapsed_ms"])


@pytest.mark.parametrize(
    "corpus_file", sorted(DATA_DIR.glob("*.nd")), ids=lambda p: p.name
)
def test_regression_corpus_check_agreement(corpus_file, capsys):
    problem = corpus_file.name.split("-")[0]
    assert run([problem, "--input", str(corpus_file), "--json", "--check"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["check"]["agree"] is True
    expected = corpus_file.stem.rsplit("-", 1)[-1]
    if expected in ("yes", "no"):
        assert payload["answer"] == expected


BENCH_CELL = ["bench", "--problem", "paths", "--k", "2", "--n", "16"]


@pytest.mark.parametrize(
    "argv, value",
    [
        ([*BENCH_CELL, "--seeds", "0"], "0"),
        ([*BENCH_CELL, "--seeds", "-1"], "-1"),
        (["gen", "graph", "--edge-prob", "3"], "3.0"),
        (["gen", "graph", "--clique-prob", "-2"], "-2.0"),
        (["gen", "graph", "--edge-prob", "nan"], "nan"),
        (["gen", "precolor", "--precolor-fraction", "-1"], "-1.0"),
        (["gen", "precolor", "--precolor-fraction", "nan"], "nan"),
        (["gen", "paths", "--pairs", "-1"], "-1"),
        ([*BENCH_CELL, "--pairs", "-1"], "-1"),
        (["gen", "motif", "--colors", "0"], "0"),
        (["gen", "precolor", "--num-colors", "17"], "17"),
        (["gen", "graph", "--k", "5", "--n", "4"], "5"),
        (["gen", "graph", "--k", "0"], "0"),
        # refused before generation: the parser would refuse the file, and
        # a far larger count would allocate per vertex before any check
        (["gen", "graph", "--k", "1", "--n", "1000001", "--clique-prob", "0",
          "--edge-prob", "0"], "1000001"),
        (["bench", "--problem", "paths", "--k", "1", "--n", "1000001", "--seeds", "1",
          "--pairs", "0"], "1000001"),
        # one random number per class pair: refused before the template
        (["gen", "graph", "--k", "10001", "--n", "20000", "--edge-prob", "0"], "10001"),
    ],
)
def test_out_of_range_generator_values_exit_2(argv, value, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.rstrip().endswith(f": {value}")


def test_bench_cells_rejects_a_seed_count_below_1():
    with pytest.raises(ValueError, match="seed count must be positive: 0"):
        bench_cells("paths", [2], [16], 0)


def test_bench_json(capsys):
    assert run([
        "bench", "--problem", "paths", "--k", "2", "--n", "16",
        "--seeds", "2", "--json", "--pairs", "2",
    ]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 1
    assert list(rows[0]) == list(BENCH_COLUMNS)
    assert rows[0]["ilp_vars"] is not None


def test_bench_reports_the_largest_ilp_over_seeds():
    # the seeds of this cell build systems of different sizes, the last one
    # not the largest, so the row must not depend on seed order
    reports = [
        solve_precolor(random_instance("precolor", random_template(2, 12, s), s))
        for s in range(3)
    ]
    per_seed = [report.ilp_vars for report in reports]
    assert per_seed[-1] < max(per_seed)
    [row] = bench_cells("precolor", [2], [12], 3)
    assert row["ilp_vars"] == max(per_seed)


_KEYWORDS = ("p", "graph", "e", "vcolor", "motif", "pair", "precolor", "colors")


def _mutate(rng: random.Random, lines: list[str]) -> list[str]:
    """1-3 edits: delete, duplicate or swap lines, truncate a line, or put a
    number in -1..99 or a keyword in place of one token."""
    lines = list(lines)
    for _ in range(rng.randint(1, 3)):
        if not lines:
            break
        i = rng.randrange(len(lines))
        edit = rng.randrange(5)
        if edit == 0:
            del lines[i]
        elif edit == 1:
            lines.insert(i, lines[i])
        elif edit == 2:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == 3:
            lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)]
        elif tokens := lines[i].split():
            token = rng.choice((str(rng.randint(-1, 99)), rng.choice(_KEYWORDS)))
            tokens[rng.randrange(len(tokens))] = token
            lines[i] = " ".join(tokens)
    return lines


def test_mutated_corpus_exits_with_a_documented_status(tmp_path):
    # every run answers (0), rejects its input (2) or hits the oracle's
    # size guard (3); none raises
    rng = random.Random(2026)
    statuses: Counter = Counter()
    for corpus_file in sorted(DATA_DIR.glob("*.nd")):
        problem = corpus_file.name.split("-")[0]
        lines = corpus_file.read_text().splitlines()
        for _ in range(22):
            path = _write(tmp_path, "mutant.nd", "\n".join(_mutate(rng, lines)) + "\n")
            for argv in (
                [problem, "--input", path, "--check", "--json", "--witness"],
                ["nd", "--input", path],
                ["oracle", problem, "--input", path],
            ):
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    status = run(argv)
                assert status in (0, 2, 3), argv
                statuses[status] += 1
    assert min(statuses[0], statuses[2]) > 50
