"""The benchmark's tracer still finds every function it wraps.

``perfbench/tracing.py`` replaces solver attributes by name, so a rename
or removal under ``src`` would only surface when ``perfbench/run.py
--trace 1`` installs it.  These tests load the tracer by path, check each
hooked attribute, and run corpus solves of every problem under it.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from ndsolve.graphs import Graph

ROOT = Path(__file__).resolve().parents[1]

# (solver module, solver, corpus file) for one yes-instance per problem; the
# triangle peels fully and builds no system, so a second precolor instance,
# whose hub does not peel, keeps ``precolor.subcategories`` counting
SOLVES = (
    ("ndsolve.motif", "solve_motif", "motif-triangle-yes.nd"),
    ("ndsolve.paths", "solve_paths", "paths-clique-yes.nd"),
    ("ndsolve.precolor", "solve_precolor", "precolor-triangle-yes.nd"),
    ("ndsolve.precolor", "solve_precolor", "precolor-unpeeled-yes.nd"),
)


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hooked(tracing):
    """The currently bound value of every attribute the tracer wraps."""
    values = [
        getattr(importlib.import_module(module), attr, None)
        for module, attr, _, _ in tracing.HOOKS + tracing.ENTRY_HOOKS
    ]
    return values + [Graph.__dict__["from_edges"]]


def test_every_hooked_attribute_exists(tracing):
    for module_name, attr, _, _ in tracing.HOOKS + tracing.ENTRY_HOOKS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_tracer_counts_one_solve_per_problem_and_restores(tracing):
    originals = _hooked(tracing)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert all(a is not b for a, b in zip(_hooked(tracing), originals))
        for op_id, (module_name, solver, corpus_file) in enumerate(SOLVES):
            tracer.begin_op(op_id)
            # look the entry points up now: the tracer wrapped them in place
            parse = importlib.import_module("ndsolve.io").parse_instance
            solve = getattr(importlib.import_module(module_name), solver)
            instance = parse((ROOT / "tests" / "data" / corpus_file).read_text())
            assert solve(instance).answer
    assert all(a is b for a, b in zip(_hooked(tracing), originals))

    counts = Counter()
    for op_counts in tracer.counts.values():
        counts.update(op_counts)
    for key in (
        "ilp.calls",
        "paths.categories",
        "precolor.subcategories",
        "motif.skeleton_calls",
    ):
        assert counts[key] > 0, key
    spans = {span[3] for span in tracer.spans}
    assert {"io.parse", "motif.solve", "paths.solve", "precolor.solve"} <= spans
