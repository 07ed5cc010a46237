"""Benchmark of record for ndsolve: one process, one thread, closed loop.

Usage, from the repository root::

    python3 perfbench/run.py --workload large-n --seed 1 --seconds 45 --trace 0

Set-up generates the workload's instances from the seed and serializes
them to ``.nd`` text.  One op is ``parse_instance(text)`` followed by the
matching ``solve_*``; the next op starts only after the previous one has
returned.  Every output is checked after the timed loop (see
``perfbench/NOTES.md``).  With ``--trace 0`` the last stdout line carries
the end-to-end metrics; with ``--trace 1`` an untraced run and a traced
replay of its first pass give the per-layer metrics and the tracing
overhead, and the spans are written to ``perfbench/out/``.  Earlier
stdout lines are a readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PINS = HERE / "pins.json"

DEFAULT_SEED = 1
SETUP_REPEATS = 3
# one op may not run longer than this; an op that does is a failed op
OP_DEADLINE_S = 5.0
TAIL_BEYOND = 10
PROBLEMS = ("motif", "paths", "precolor")


class OpDeadline(Exception):
    """Raised inside an op that overran OP_DEADLINE_S."""


def _on_alarm(signum, frame):
    raise OpDeadline(f"op ran longer than {OP_DEADLINE_S} s")


class Runner:
    """Runs ops through ndsolve's module attributes, so tracing wrappers apply."""

    def __init__(self):
        import ndsolve.io
        import ndsolve.motif
        import ndsolve.paths
        import ndsolve.precolor

        self.io = ndsolve.io
        self.solvers = {
            "motif": (ndsolve.motif, "solve_motif", ndsolve.MotifInstance),
            "paths": (ndsolve.paths, "solve_paths", ndsolve.PathsInstance),
            "precolor": (ndsolve.precolor, "solve_precolor", ndsolve.PrecolorInstance),
        }
        self.graph_type = ndsolve.Graph

    def load(self, problem: str, text: str):
        instance = self.io.parse_instance(text)
        _, _, kind = self.solvers[problem]
        if problem == "paths" and isinstance(instance, self.graph_type):
            # serialize_instance writes a 0-pair paths instance as a bare
            # graph; like the CLI, read a bare graph as a paths instance
            instance = kind(instance, ())
        if not isinstance(instance, kind):
            raise TypeError(f"parsed a {type(instance).__name__}, expected {kind.__name__}")
        return instance

    def op(self, problem: str, text: str):
        instance = self.load(problem, text)
        module, name, _ = self.solvers[problem]
        return getattr(module, name)(instance)

    def attempt(self, fn, *args):
        """(seconds, result or None, exception or None); never raises Exception."""
        signal.setitimer(signal.ITIMER_REAL, OP_DEADLINE_S)
        start = time.perf_counter()
        try:
            result = fn(*args)
            error = None
        except Exception as exc:  # every failure of one op is recorded, not fatal
            result, error = None, exc
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        return elapsed, result, error


class Run:
    """The ops of one timed loop.

    Item index and latency per op go into flat arrays, and only each
    item's first report is kept, so the benchmark's own memory barely
    grows with the number of ops and stays out of ``peak_rss_mb``.
    """

    def __init__(self):
        self.index = array("l")
        self.seconds = array("d")
        self.first: dict[int, object] = {}  # item -> its first report
        self.errors: dict[int, Exception] = {}  # op position -> what it raised
        self.differs: set[int] = set()  # op positions whose output != the item's first
        self.wall = 0.0
        self.passes = 0

    def __len__(self) -> int:
        return len(self.index)

    def add(self, index: int, seconds: float, report, error) -> None:
        position = len(self.index)
        self.index.append(index)
        self.seconds.append(seconds)
        if error is not None:
            self.errors[position] = error
        elif index not in self.first:
            self.first[index] = report
        elif _key(report) != _key(self.first[index]):
            self.differs.add(position)


def _key(report) -> tuple:
    """What must repeat across passes: answer, nd and the witness's hash."""
    return (report.answer, report.nd, hash(report.witness))


def _setup(workloads, name: str, seed: int):
    times = []
    items = texts = None
    for _ in range(SETUP_REPEATS):
        items = None  # free the previous set-up's instances first
        start = time.perf_counter()
        items = workloads.build(name, seed)
        times.append(time.perf_counter() - start)
        if texts is None:
            texts = [item.text for item in items]
        elif texts != [item.text for item in items]:
            raise SystemExit("set-up is not deterministic for a fixed seed")
    return items, times


def _timed(runner: Runner, items, budget_s: float, passes: int | None = None, tracer=None) -> Run:
    """Whole passes over ``items``: ``passes`` of them, or until the budget.

    A pass is not started when the previous one says it would end past
    the budget, but at least one pass always runs.
    """
    run = Run()
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for index, item in enumerate(items):
            if tracer is None:
                run.add(index, *runner.attempt(runner.op, item.problem, item.text))
            else:
                tracer.begin_op(len(run))
                with tracer.span("op"):
                    outcome = runner.attempt(runner.op, item.problem, item.text)
                run.add(index, *outcome)
        run.passes += 1
        now = time.perf_counter()
        if passes is not None:
            if run.passes >= passes:
                break
        elif now - start + (now - pass_start) > budget_s:
            break
    run.wall = time.perf_counter() - start
    return run


def _brute_nd(graph) -> int:
    """Class count from the defining set equation; same-type is an equivalence."""
    reps: list[int] = []
    for v in range(graph.n):
        nv = set(graph.adj[v])
        for r in reps:
            if (nv - {r}) == (set(graph.adj[r]) - {v}):
                break
        else:
            reps.append(v)
    return len(reps)


def _expectations(runner, workload: str, seed: int, items, pins):
    """Per item: (answer or None, nd or None, source) the outputs must match."""
    from ndsolve import oracles

    table = pins.get(workload) if pins and seed == pins.get("seed") else None
    expected = []
    for i, item in enumerate(items):
        answer, nd, source = item.planted, None, "planted" if item.planted is not None else None
        if workload == "many-small":
            instance = runner.load(item.problem, item.text)
            oracle = getattr(oracles, f"oracle_{item.problem}")
            oracle_answer = oracle(instance)[0]
            if answer is not None and answer != oracle_answer:
                raise SystemExit(f"item {i}: planted answer disagrees with the oracle")
            answer, nd, source = oracle_answer, _brute_nd(instance.graph), "oracle"
        elif table is not None:
            pin_answer, pin_nd = table[i]
            if pin_answer is not None:
                answer = pin_answer
            nd, source = pin_nd, "pin"
        expected.append((answer, nd, source))
    return expected


def _witness_error(ndsolve, runner, item, report) -> str | None:
    if not report.answer:
        return None
    if report.witness is None:
        return "yes without a witness"
    instance = runner.load(item.problem, item.text)
    try:
        if item.problem == "motif":
            ndsolve.validate_motif_witness(instance, report.witness.vertices)
        elif item.problem == "paths":
            ndsolve.validate_paths_witness(instance, report.witness.paths)
        else:
            ndsolve.validate_coloring_witness(instance, report.witness.colors)
    except ValueError as exc:
        return f"invalid witness: {exc}"
    return None


def _output_error(ndsolve, runner, item, report, expected) -> str | None:
    """Why ``report`` is a wrong output for ``item``, or None."""
    answer, nd, source = expected
    if answer is not None and report.answer != answer:
        return f"answer {report.answer}, {source} says {answer}"
    if nd is not None and report.nd != nd:
        return f"nd {report.nd}, {source} says {nd}"
    if report.nd > item.k:
        return f"nd {report.nd} above the template's {item.k} classes"
    return _witness_error(ndsolve, runner, item, report)


def _tally(run: Run, wrong: dict[int, str]):
    """Failed op count, and per item the latencies (ms) of its completed ops."""
    samples: dict[int, list[float]] = defaultdict(list)
    failed = 0
    for position, (index, seconds) in enumerate(zip(run.index, run.seconds)):
        if position in run.errors or position in run.differs or index in wrong:
            failed += 1
        else:
            samples[index].append(seconds * 1000.0)
    return failed, samples


def _self_check(ndsolve, runner) -> tuple[bool, str]:
    """Ops outside any workload that must be recorded as failures, not stop the run."""
    from ndsolve.ilp import IlpProblem, equal, solve_feasibility

    n = 1200
    big = IlpProblem(n, (0,) * n, (1,) * n, (equal((1,) * n, 1),))
    probes = [
        ("ilp sum x_j = 1 over 1200 vars", solve_feasibility, (big,)),
        ("malformed header", runner.op, ("motif", "p graph x\n")),
    ]
    errors = [runner.attempt(fn, *args)[2] for _, fn, args in probes]
    # the ILP raises only while the engine's search recurses per variable
    ok = isinstance(errors[1], ndsolve.ParseError)
    outcomes = "; ".join(
        f"{label}: {type(error).__name__ if error else 'no error'}"
        for (label, _, _), error in zip(probes, errors)
    )
    failed = sum(error is not None for error in errors)
    return ok, f"{len(probes)} attempted, {failed} failed ({outcomes})"


def _probe(ndsolve, runner, items) -> tuple[bool, str]:
    """Run each probe item once, untimed; count raises, validate answers."""
    raised = Counter()
    answered = 0
    ok = True
    for item in items:
        _, report, error = runner.attempt(runner.op, item.problem, item.text)
        if error is not None:
            raised[type(error).__name__] += 1
            continue
        answered += 1
        if _output_error(ndsolve, runner, item, report, (None, None, None)):
            ok = False
    counts = ", ".join(f"{name} x{count}" for name, count in sorted(raised.items()))
    return ok, (
        f"recursion probe (untimed, outside the metrics): paths k=10, 3 pairs, "
        f"{len(items)} attempted, {sum(raised.values())} failed ({counts or 'none raised'}), "
        f"{answered} answered{'' if ok else ', WRONG output'}"
    )


def _percentile_tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with TAIL_BEYOND samples above it: (value, pct, n).

    Below 2 * TAIL_BEYOND samples that percentile would sit under the
    median, so the tail is the maximum instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(items, run: Run, samples, failed: int, setup_times, peak_kb: int):
    """The end-to-end metrics; an instance's latency is its median over the passes."""
    latency = {index: statistics.median(ms) for index, ms in samples.items()}
    tail, pct, n = _percentile_tail(list(latency.values()))
    metrics = {
        "ops_per_s": _metric((len(run) - failed) / run.wall, "ops/s"),
        "op_ms.p50": _metric(statistics.median(latency.values()), "ms"),
        "op_ms.tail": _metric(tail, "ms"),
    }
    for problem in PROBLEMS:
        ms = [v for index, v in latency.items() if items[index].problem == problem]
        metrics[f"{problem}.op_ms.p50"] = _metric(statistics.median(ms), "ms")
    metrics["setup_s"] = _metric(statistics.median(setup_times), "s")
    metrics["peak_rss_mb"] = _metric(peak_kb / 1024.0, "MB")
    return metrics, f"op_ms.tail is p{pct:.1f} over {n} instances"


def _layer_metrics(items, traced: Run, tracer):
    """Per-layer metrics from the spans and counters of the traced replay."""
    from tracing import self_times

    own = self_times(tracer.spans)
    dur = defaultdict(float)  # (op, name) -> ms
    selfms = defaultdict(float)
    children = defaultdict(float)  # op -> ms of the op span's direct children
    op_span = {}
    for op_id, sid, parent, name, start, end in tracer.spans:
        dur[(op_id, name)] += (end - start) / 1e6
        selfms[(op_id, name)] += own[sid] / 1e6
        if name == "op":
            op_span[sid] = op_id
    for op_id, sid, parent, name, start, end in tracer.spans:
        if parent in op_span:
            children[op_span[parent]] += (end - start) / 1e6
    ops_of = defaultdict(list)
    for op_id, index in enumerate(traced.index):
        ops_of[items[index].problem].append(op_id)
    every = range(len(traced))
    totals = Counter()
    for counts in tracer.counts.values():
        totals.update(counts)

    def mean(name, ops, table=dur):
        return sum(table[(o, name)] for o in ops) / len(ops) if ops else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    def total_ms(*names):
        return sum(dur[(o, name)] for o in every for name in names)

    edges = sum(items[index].edges for index in traced.index)
    text_bytes = sum(len(items[index].text) for index in traced.index)
    motif, paths, precolor = (ops_of[p] for p in PROBLEMS)
    values = {
        "io.parse_ms.self": (mean("io.parse", every, selfms), "ms"),
        "io.mb_per_s": (ratio(text_bytes / 1e6, total_ms("io.parse") / 1000.0), "MB/s"),
        "graphs.from_edges_ms": (mean("graphs.from_edges", every), "ms"),
        "graphs.ns_per_edge": (ratio(total_ms("graphs.from_edges") * 1e6, edges), "ns"),
        "decomposition.partition_ms": (mean("decomposition.partition", every), "ms"),
        "decomposition.quotient_ms": (mean("decomposition.quotient", every), "ms"),
        "decomposition.ns_per_edge": (
            ratio(total_ms("decomposition.partition", "decomposition.quotient") * 1e6, edges),
            "ns",
        ),
        "decomposition.nd": (ratio(totals["decomposition.nd"], len(every)), "count"),
        "motif.search_ms.self": (mean("motif.solve", motif, selfms), "ms"),
        "motif.candidates": (ratio(totals["motif.candidates"], len(motif)), "count"),
        "motif.connected_frac": (
            ratio(totals["motif.connected"], totals["motif.candidates"]), "ratio"
        ),
        "motif.skeleton_calls": (ratio(totals["motif.skeleton_calls"], len(motif)), "count"),
        "motif.skeleton_hit_frac": (
            ratio(totals["motif.skeleton_hits"], totals["motif.skeleton_calls"]), "ratio"
        ),
        "matching.calls": (ratio(totals["matching.calls"], len(motif)), "count"),
        "matching.ms": (mean("matching", motif), "ms"),
        "paths.compile_ms": (mean("paths.compile", paths), "ms"),
        "paths.route_checks": (ratio(totals["paths.route_checks"], len(paths)), "count"),
        "paths.categories": (ratio(totals["paths.categories"], len(paths)), "count"),
        "paths.category_frac": (
            ratio(totals["paths.categories"], totals["paths.route_checks"]), "ratio"
        ),
        "paths.reconstruct_ms": (mean("paths.reconstruct", paths), "ms"),
        "precolor.reduce_ms": (mean("precolor.reduce", precolor), "ms"),
        "precolor.compile_ms": (mean("precolor.compile", precolor), "ms"),
        "precolor.subcategories": (
            ratio(totals["precolor.subcategories"], len(precolor)), "count"
        ),
        "precolor.reconstruct_ms": (mean("precolor.reconstruct", precolor), "ms"),
        "ilp.calls": (ratio(totals["ilp.calls"], len(paths) + len(precolor)), "count"),
        "ilp.solve_ms": (ratio(total_ms("ilp.solve"), totals["ilp.calls"]), "ms"),
        "ilp.vars": (ratio(totals["ilp.vars"], totals["ilp.calls"]), "count"),
        "ilp.rows": (ratio(totals["ilp.rows"], totals["ilp.calls"]), "count"),
        "ilp.feasible_frac": (ratio(totals["ilp.feasible"], totals["ilp.calls"]), "ratio"),
        "instances.validate_ms": (mean("instances.validate", every), "ms"),
        "op.fixed_us": (
            1000.0 * statistics.fmean(dur[(o, "op")] - children[o] for o in every), "us"
        ),
    }
    return {name: _metric(v, unit) for name, (v, unit) in values.items()}, dur


BREAKDOWN_SPANS = (
    "io.parse",
    "graphs.from_edges",
    "decomposition.partition",
    "decomposition.quotient",
    "motif.solve",
    "paths.compile",
    "precolor.compile",
    "ilp.solve",
)


def _breakdown(workload, items, traced: Run, dur) -> list[str]:
    """Mean ms per op by k (high-k) or by edge count (large-n); report only."""
    if workload not in ("high-k", "large-n"):
        return []
    groups = defaultdict(list)
    for op_id, (index, seconds) in enumerate(zip(traced.index, traced.seconds)):
        item = items[index]
        key = (item.problem, "k", item.k) if workload == "high-k" else ("all", "m", item.edges)
        groups[key].append((op_id, seconds))
    lines = []
    for (problem, axis, value), ops in sorted(groups.items()):
        parts = [f"op {1000 * statistics.fmean(t for _, t in ops):.1f}"]
        for name in BREAKDOWN_SPANS:
            ms = statistics.fmean(dur[(o, name)] for o, _ in ops)
            if ms > 0:
                parts.append(f"{name} {ms:.2f}")
        lines.append(
            f"breakdown {problem} {axis}={value} ({len(ops)} ops, mean ms): " + ", ".join(parts)
        )
    return lines


def _write_spans(workload: str, seed: int, tracer) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.csv"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("op,span,parent,name,start_ns,end_ns\n")
        for span in tracer.spans:
            handle.write(",".join(map(str, span)) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("large-n", "many-small", "high-k"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-pins",
        action="store_true",
        help="record answer and nd of the default seed's large-n and high-k items in pins.json",
    )
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_pins:
        parser.error("--workload is required")

    if not __debug__:
        print("refusing to run under python -O: it strips the engine's asserts", file=sys.stderr)
        return 2
    if not (SRC / "ndsolve" / "__init__.py").is_file():
        print(f"ndsolve sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ndsolve
    import workloads
    from tracing import Tracer

    signal.signal(signal.SIGALRM, _on_alarm)
    runner = Runner()
    if args.write_pins:
        return _write_pins(runner, workloads)

    pins = json.loads(PINS.read_text(encoding="utf-8")) if PINS.is_file() else None
    items, setup_times = _setup(workloads, args.workload, args.seed)
    runner.attempt(runner.op, items[0].problem, items[0].text)  # warm-up, untimed

    run = _timed(runner, items, args.seconds / 2 if args.trace else args.seconds)
    # read before the checks, so only set-up and the timed loop count
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    expected = _expectations(runner, args.workload, args.seed, items, pins)
    wrong = {
        index: problem
        for index, report in run.first.items()
        if (problem := _output_error(ndsolve, runner, items[index], report, expected[index]))
    }
    failed, samples = _tally(run, wrong)
    self_ok, self_line = _self_check(ndsolve, runner)
    correct = not wrong and not run.differs and self_ok

    if any(source == "pin" for _, _, source in expected):
        pin_state = "checked"
    elif args.workload == "many-small":
        pin_state = "not used (the oracles check every answer)"
    else:
        pin_state = f"skipped (pins exist for seed {pins.get('seed') if pins else None} only)"
    lines = [
        f"workload {args.workload} seed {args.seed} nproc {len(os.sched_getaffinity(0))} "
        f"python {platform.python_version()} trace {args.trace}",
        f"{len(items)} instances, {run.passes} passes, {len(run)} ops in {run.wall:.2f} s "
        "(closed loop, one caller)",
        f"regression pins: {pin_state}",
        f"failure accounting self-check: {self_line}",
    ]
    raised = Counter(type(error).__name__ for error in run.errors.values())
    lines.append(
        f"failed_frac {failed / len(run):.4f} ratio ({failed}/{len(run)}; "
        + (", ".join(f"{name} x{count}" for name, count in sorted(raised.items())) or "none raised")
        + f"; {len(wrong)} instances with wrong output; {len(run.differs)} ops differ from "
        "their instance's first output)"
    )
    for index, problem in sorted(wrong.items())[:10]:
        lines.append(f"WRONG item {index} ({items[index].problem}): {problem}")
    for problem in PROBLEMS:
        answers = [
            report.answer
            for index, report in run.first.items()
            if items[index].problem == problem and index not in wrong
        ]
        total = sum(item.problem == problem for item in items)
        if answers:
            lines.append(
                f"yes_frac {problem} {sum(answers) / len(answers):.3f} "
                f"({sum(answers)}/{len(answers)} checked answers of {total} instances)"
            )

    if args.trace == 0:
        metrics, tail_note = _end_to_end(items, run, samples, failed, setup_times, peak_kb)
        lines.append(tail_note)
    else:
        tracer = Tracer()
        with tracer.installed():
            traced = _timed(runner, items, 0.0, passes=1, tracer=tracer)
        both = [index for index in traced.first if index in run.first]
        mismatched = sum(_key(traced.first[i]) != _key(run.first[i]) for i in both)
        if mismatched:
            correct = False
            lines.append(f"WRONG traced replay answers differ on {mismatched} instances")
        lines.append(
            f"traced replay of pass 1: {len(both)} of {len(items)} instances answered "
            f"in both runs, {mismatched} differ"
        )
        metrics, dur = _layer_metrics(items, traced, tracer)
        untraced_s = sum(run.seconds[: len(items)])
        traced_s = sum(traced.seconds)
        metrics["trace.overhead_frac"] = _metric(traced_s / untraced_s - 1.0, "ratio")
        lines.extend(_breakdown(args.workload, items, traced, dur))
        lines.append(f"spans written to {_write_spans(args.workload, args.seed, tracer)}")

    if args.workload == "high-k":
        probe_ok, probe_line = _probe(ndsolve, runner, workloads.recursion_probe(args.seed))
        correct = correct and probe_ok
        lines.append(probe_line)
    for name, metric in metrics.items():
        lines.append(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    print("\n".join(lines))
    result = {"correct": correct, "attempted": len(run), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def _write_pins(runner, workloads) -> int:
    """Regression pins: what the code answered for the default seed, not ground truth."""
    pins = {
        "seed": DEFAULT_SEED,
        "note": "regression pins recorded from ndsolve's own answers; not ground truth",
    }
    for name in ("large-n", "high-k"):
        table = []
        for item in workloads.build(name, DEFAULT_SEED):
            _, report, error = runner.attempt(runner.op, item.problem, item.text)
            table.append([None, None] if error else [report.answer, report.nd])
        pins[name] = table
    body = ",\n".join(f" {json.dumps(key)}: {json.dumps(value)}" for key, value in pins.items())
    PINS.write_text("{\n" + body + "\n}\n", encoding="utf-8")
    print(f"wrote {PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
