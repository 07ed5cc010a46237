"""Command-line entry point: decompose, solve, cross-check, generate, bench."""

from __future__ import annotations

import argparse
import functools
import json
import statistics
import sys
import time
from typing import Callable, NamedTuple

from .decomposition import build_type_graph, compute_type_partition
from .generate import (
    generate_from_template,
    random_instance,
    random_template,
    sparse_template,
)
from .graphs import Graph
from .ilp import format_problem
from .instances import MotifInstance, PathsInstance, PrecolorInstance, SolveReport
from .io import MAX_VERTICES, ParseError, parse_instance, serialize_instance
from .motif import MotifWitness, solve_motif
from .oracles import SizeGuardError, oracle_motif, oracle_paths, oracle_precolor
from .paths import PathsWitness, compile_paths, solve_paths
from .precolor import ColoringWitness, compile_precolor, solve_precolor


class _Problem(NamedTuple):
    instance_type: type
    solve: Callable
    oracle: Callable
    witness_type: type
    compile: Callable | None  # instance -> (..., IlpProblem); None: no system
    encode: Callable  # witness -> its JSON value, vertex ids 1-based


_PROBLEMS = {
    "motif": _Problem(
        MotifInstance, solve_motif, oracle_motif, MotifWitness,
        None, lambda w: [v + 1 for v in w.vertices],
    ),
    "paths": _Problem(
        PathsInstance, solve_paths, oracle_paths, PathsWitness,
        compile_paths, lambda w: [[v + 1 for v in path] for path in w.paths],
    ),
    "precolor": _Problem(
        PrecolorInstance, solve_precolor, oracle_precolor, ColoringWitness,
        compile_precolor, lambda w: {str(v + 1): c for v, c in enumerate(w.colors)},
    ),
}

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_GUARD = 3


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _emit_report(problem: str, report: SolveReport, args, check=None) -> None:
    """Print ``report`` as JSON or as text, its numbers from
    :meth:`SolveReport.stats` in their order."""
    answer = "yes" if report.answer else "no"
    stats = report.stats()
    witness = None
    if args.witness and report.witness is not None:
        witness = _PROBLEMS[args.problem].encode(report.witness)
    if args.json:
        payload = {
            "problem": problem,
            "answer": answer,
            "stats": {key: round(value, 3) for key, value in stats.items()},
        }
        if witness is not None:
            payload["witness"] = witness
        if check is not None:
            payload["check"] = check
        print(json.dumps(payload))
        return
    print(f"answer: {answer}")
    for key, value in stats.items():
        print(f"{key}: {value:.3f}" if isinstance(value, float) else f"{key}: {value}")
    if witness is not None:
        print(f"witness: {json.dumps(witness)}")
    if check is not None:
        print(f"check: oracle={check['oracle_answer']} agree={check['agree']}")


def _load(args, problem: str | None = None):
    """Parse ``--input``; with a problem name, check the instance kind.

    A bare graph file is a paths instance with no terminal pairs.
    """
    instance = parse_instance(_read_input(args.input))
    if problem is None:
        return instance
    if problem == "paths" and isinstance(instance, Graph):
        return PathsInstance(instance, ())
    expected = _PROBLEMS[problem].instance_type
    if not isinstance(instance, expected):
        raise ParseError(
            f"input is a {type(instance).__name__}, expected {expected.__name__}"
        )
    return instance


def _cmd_nd(args) -> int:
    instance = _load(args)
    graph = instance if isinstance(instance, Graph) else instance.graph
    partition = compute_type_partition(graph)
    type_graph = build_type_graph(graph, partition)
    if args.json:
        print(
            json.dumps(
                {
                    "problem": "nd",
                    "k": partition.num_types,
                    "classes": [
                        {
                            "id": t,
                            "size": len(members),
                            "clique": partition.clique_flag[t],
                            "members": [v + 1 for v in members],
                        }
                        for t, members in enumerate(partition.classes)
                    ],
                    "h_edges": [[a, b] for a, b in type_graph.edges()],
                }
            )
        )
    else:
        print(f"k={partition.num_types}")
        for t, members in enumerate(partition.classes):
            kind = "clique" if partition.clique_flag[t] else "independent"
            ids = " ".join(str(v + 1) for v in members)
            print(f"type {t}: size={len(members)} {kind} members: {ids}")
        edges = " ".join(f"{a}-{b}" for a, b in type_graph.edges())
        print(f"H edges: {edges if edges else '(none)'}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    problem = _PROBLEMS[args.problem]
    instance = _load(args, args.problem)
    if getattr(args, "dump_ilp", False):
        sys.stderr.write(format_problem(problem.compile(instance)[-1]))
    report = problem.solve(instance)
    check = None
    if args.check:
        answer, _ = problem.oracle(instance)
        check = {
            "oracle_answer": "yes" if answer else "no",
            "agree": answer == report.answer,
        }
    _emit_report(args.problem, report, args, check)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    problem = _PROBLEMS[args.problem]
    instance = _load(args, args.problem)
    nd = compute_type_partition(instance.graph).num_types
    start = time.perf_counter()
    _, raw = problem.oracle(instance)
    witness = problem.witness_type(tuple(raw)) if raw is not None else None
    report = SolveReport.finish(start, nd, witness)
    _emit_report(f"oracle-{args.problem}", report, args)
    return EXIT_OK


def _instance_params(args) -> dict:
    """The ``random_instance`` keywords from the shared instance flags."""
    return {
        "colors": args.colors,
        "motif_size": args.motif_size,
        "num_pairs": args.pairs,
        "num_colors": args.num_colors,
        "precolor_fraction": args.precolor_fraction,
    }


# the templates draw one random number per class pair, so their work grows
# with the square of the class count
MAX_CLASSES = 10**4


def _check_sizes(ks: list[int], ns: list[int]) -> None:
    """Refuse, before anything is drawn, a class count past
    :data:`MAX_CLASSES` or a vertex count that the parser would refuse to
    read back."""
    for k in ks:
        if k > MAX_CLASSES:
            raise ValueError(f"class count exceeds the limit {MAX_CLASSES}: {k}")
    for n in ns:
        if n > MAX_VERTICES:
            raise ValueError(f"vertex count exceeds the limit {MAX_VERTICES}: {n}")


def _cmd_gen(args) -> int:
    _check_sizes([args.k], [args.n])
    template = random_template(
        args.k, args.n, args.seed, edge_prob=args.edge_prob, clique_prob=args.clique_prob
    )
    if args.problem == "graph":
        instance = generate_from_template(template, args.seed)
    else:
        instance = random_instance(
            args.problem, template, args.seed, **_instance_params(args)
        )
    text = serialize_instance(instance)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


BENCH_COLUMNS = ("problem", "k", "n", "seeds", "median_ms", "max_ms", "ilp_vars")


def bench_cells(
    problem: str,
    ks: list[int],
    ns: list[int],
    seeds: int,
    base_seed: int = 0,
    **params,
) -> list[dict]:
    """Run the benchmark grid; one row per (k, n) cell, keyed by
    :data:`BENCH_COLUMNS`.

    Instance generation is deterministic per seed; ``params`` go to
    :func:`random_instance`.  Cells of 1000+ vertices use the sparse
    template so a fully-joined pair of huge classes cannot blow the edge
    count up quadratically.  Cells run one after another in one thread, so
    no cell's time includes waiting on another.  A row's times and
    ``ilp_vars`` come from its seeds' :meth:`SolveReport.stats`; its
    ``ilp_vars`` is the largest over its seeds, as ``max_ms`` is, and None
    when no seed built a system.  Raises ``ValueError`` when ``seeds`` is
    below 1.
    """
    if seeds < 1:
        raise ValueError(f"seed count must be positive: {seeds}")
    solve = _PROBLEMS[problem].solve

    def run_cell(k: int, n: int) -> dict:
        per_seed = []
        for i in range(seeds):
            seed = base_seed + i
            make_template = sparse_template if n >= 1000 else random_template
            instance = random_instance(problem, make_template(k, n, seed), seed, **params)
            per_seed.append(solve(instance).stats())
        times = [stats["elapsed_ms"] for stats in per_seed]
        sizes = [stats["ilp_vars"] for stats in per_seed if "ilp_vars" in stats]
        median_ms, max_ms = round(statistics.median(times), 3), round(max(times), 3)
        row = (problem, k, n, seeds, median_ms, max_ms, max(sizes, default=None))
        return dict(zip(BENCH_COLUMNS, row))

    return [run_cell(k, n) for k in ks for n in ns]


def _cmd_bench(args) -> int:
    _check_sizes(args.k, args.n)
    rows = bench_cells(
        args.problem,
        args.k,
        args.n,
        args.seeds,
        base_seed=args.seed,
        **_instance_params(args),
    )
    if args.json:
        print(json.dumps(rows))
        return EXIT_OK
    print("\t".join(BENCH_COLUMNS))
    for row in rows:
        print("\t".join(str(row[column]) for column in BENCH_COLUMNS))
    return EXIT_OK


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _add_io_args(sub, check: bool = True, dump_ilp: bool = False) -> None:
    sub.add_argument("--input", default="-", help="instance file, '-' for stdin")
    sub.add_argument("--json", action="store_true", help="emit a JSON report")
    sub.add_argument("--witness", action="store_true", help="include the witness")
    if check:
        sub.add_argument(
            "--check", action="store_true", help="cross-check against the brute-force decider"
        )
    if dump_ilp:
        sub.add_argument(
            "--dump-ilp", action="store_true", help="write the integer system to stderr"
        )


def _add_instance_args(sub) -> None:
    """Instance flags shared by ``gen`` and ``bench``; see :func:`_instance_params`."""
    sub.add_argument("--colors", type=int, default=4, help="motif palette size")
    sub.add_argument("--motif-size", type=int, default=None)
    sub.add_argument("--pairs", type=int, default=None, help="terminal pair count")
    sub.add_argument("--num-colors", type=int, default=4, help="color budget")
    sub.add_argument("--precolor-fraction", type=float, default=0.35)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: ``parse_args`` leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="ndsolve",
        description="Neighborhood-diversity decomposition and exact solvers",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    nd = subs.add_parser("nd", help="print the type decomposition")
    nd.add_argument("--input", default="-")
    nd.add_argument("--json", action="store_true")
    nd.set_defaults(handler=_cmd_nd)

    for name, problem in _PROBLEMS.items():
        sub = subs.add_parser(name, help=f"solve a {name} instance")
        _add_io_args(sub, check=True, dump_ilp=problem.compile is not None)
        sub.set_defaults(handler=_cmd_solve, problem=name)

    oracle = subs.add_parser("oracle", help="run a brute-force decider")
    oracle.add_argument("problem", choices=tuple(_PROBLEMS))
    _add_io_args(oracle, check=False)
    oracle.set_defaults(handler=_cmd_oracle)

    gen = subs.add_parser("gen", help="generate a random instance")
    gen.add_argument("problem", choices=("graph", *_PROBLEMS))
    gen.add_argument("--k", type=int, default=3, help="number of type classes")
    gen.add_argument("--n", type=int, default=12, help="number of vertices")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--edge-prob", type=float, default=0.5)
    gen.add_argument("--clique-prob", type=float, default=0.5)
    _add_instance_args(gen)
    gen.add_argument("--output", default=None, help="write to a file instead of stdout")
    gen.set_defaults(handler=_cmd_gen)

    bench = subs.add_parser("bench", help="timing grid over (k, n) cells")
    bench.add_argument("--problem", required=True, choices=tuple(_PROBLEMS))
    bench.add_argument("--k", type=_int_list, default=[2, 4])
    bench.add_argument("--n", type=_int_list, default=[100])
    bench.add_argument("--seeds", type=int, default=3)
    bench.add_argument("--seed", type=int, default=0, help="base seed")
    bench.add_argument("--json", action="store_true")
    _add_instance_args(bench)
    bench.set_defaults(handler=_cmd_bench)
    return parser


def run(argv: list[str]) -> int:
    """Run one CLI invocation; returns the process exit status."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
