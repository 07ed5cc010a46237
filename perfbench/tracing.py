"""In-memory span recorder that wraps ndsolve's layer functions.

The solvers import their helpers by name (``from .decomposition import
compute_type_partition``), so a call is intercepted by replacing the
attribute in the *calling* module.  :data:`HOOKS` lists every wrapped
attribute as (module, attribute, span name, counter hook); nothing under
``src/`` changes, and :meth:`Tracer.installed` restores the originals.

A span is (op id, span id, parent span id, name, start ns, end ns).
Functions called tens of thousands of times per op (``candidate_type_set``,
``route_is_valid``) get a counting wrapper without a span, which keeps
the tracing overhead small; their time stays in the caller's self time.
"""

from __future__ import annotations

import contextlib
import importlib
from collections import Counter
from time import perf_counter_ns


def _count_connected(counts, args, result):
    counts["motif.candidates"] += 1
    counts["motif.connected"] += result.connected


def _count_skeleton(counts, args, result):
    counts["motif.skeleton_calls"] += 1
    counts["motif.skeleton_hits"] += result is not None


def _count_route(counts, args, result):
    counts["paths.route_checks"] += 1


def _count_paths_ilp(counts, args, result):
    counts["paths.categories"] += len(result[1])


def _count_subcats(counts, args, result):
    counts["precolor.subcategories"] += len(result[1])


def _count_ilp(counts, args, result):
    problem = args[0]
    counts["ilp.calls"] += 1
    counts["ilp.vars"] += problem.num_vars
    counts["ilp.rows"] += len(problem.constraints)
    counts["ilp.feasible"] += result is not None


def _count_partition(counts, args, result):
    counts["decomposition.nd"] += result.num_types


def _count_matching(counts, args, result):
    counts["matching.calls"] += 1


# (module, attribute, span name or None for count-only, counter hook)
HOOKS = (
    ("ndsolve.motif", "compute_type_partition", "decomposition.partition", _count_partition),
    ("ndsolve.paths", "compute_type_partition", "decomposition.partition", _count_partition),
    ("ndsolve.precolor", "compute_type_partition", "decomposition.partition", _count_partition),
    ("ndsolve.motif", "build_type_graph", "decomposition.quotient", None),
    ("ndsolve.paths", "build_type_graph", "decomposition.quotient", None),
    ("ndsolve.precolor", "build_type_graph", "decomposition.quotient", None),
    ("ndsolve.motif", "candidate_type_set", None, _count_connected),
    ("ndsolve.motif", "skeleton_exists", "motif.skeleton", _count_skeleton),
    ("ndsolve.motif", "max_bipartite_matching", "matching", _count_matching),
    ("ndsolve.motif", "extend_skeleton", "motif.extend", None),
    ("ndsolve.motif", "validate_motif_witness", "instances.validate", None),
    ("ndsolve.paths", "build_paths_ilp", "paths.compile", _count_paths_ilp),
    ("ndsolve.paths", "route_is_valid", None, _count_route),
    ("ndsolve.paths", "solve_feasibility", "ilp.solve", _count_ilp),
    ("ndsolve.paths", "reconstruct_paths", "paths.reconstruct", None),
    ("ndsolve.paths", "validate_paths_witness", "instances.validate", None),
    ("ndsolve.precolor", "reduce_independent_types", "precolor.reduce", None),
    ("ndsolve.precolor", "compute_color_categories", "precolor.compile", None),
    ("ndsolve.precolor", "build_precolor_ilp", "precolor.compile", _count_subcats),
    ("ndsolve.precolor", "solve_feasibility", "ilp.solve", _count_ilp),
    ("ndsolve.precolor", "reconstruct_coloring", "precolor.reconstruct", None),
    ("ndsolve.precolor", "validate_coloring_witness", "instances.validate", None),
)

# entry points the benchmark calls; wrapped the same way
ENTRY_HOOKS = (
    ("ndsolve.io", "parse_instance", "io.parse", None),
    ("ndsolve.motif", "solve_motif", "motif.solve", None),
    ("ndsolve.paths", "solve_paths", "paths.solve", None),
    ("ndsolve.precolor", "solve_precolor", "precolor.solve", None),
)


class Tracer:
    """Collects spans and per-op counters while its wrappers are installed."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.counts: dict[int, Counter] = {}
        self.op_id = -1
        self._stack: list[int] = []

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.counts[op_id] = Counter()

    def span(self, name: str):
        """Context manager recording one span under the current parent."""
        return _Span(self, name)

    def _wrap(self, fn, name, hook):
        spans, stack = self.spans, self._stack
        tracer = self

        if name is None:

            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(tracer.counts[tracer.op_id], args, result)
                return result

            return counted

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[sid] = (tracer.op_id, sid, parent, name, start, end)
            if hook is not None:
                hook(tracer.counts[tracer.op_id], args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper, and the from_edges span; restore on exit."""
        from ndsolve.graphs import Graph

        saved = []
        try:
            for module_name, attr, name, hook in HOOKS + ENTRY_HOOKS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, hook))
            from_edges = Graph.__dict__["from_edges"]
            saved.append((Graph, "from_edges", from_edges))
            Graph.from_edges = classmethod(
                self._wrap(from_edges.__func__, "graphs.from_edges", None)
            )
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        self.sid = len(tracer.spans)
        tracer.spans.append(None)
        self.parent = tracer._stack[-1] if tracer._stack else -1
        tracer._stack.append(self.sid)
        self.start = perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = perf_counter_ns()
        tracer = self.tracer
        tracer._stack.pop()
        tracer.spans[self.sid] = (
            tracer.op_id, self.sid, self.parent, self.name, self.start, end
        )
        return False


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the durations of its direct children (ns)."""
    own = {}
    for op_id, sid, parent, name, start, end in spans:
        own[sid] = own.get(sid, 0) + (end - start)
        if parent >= 0:
            own[parent] = own.get(parent, 0) - (end - start)
    return own
