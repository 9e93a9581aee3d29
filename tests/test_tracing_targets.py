"""The benchmark tracer patches package functions that it looks up by
name; every name it lists must resolve, or a tracing run breaks.  It
also counts work through the package's API, so one item of each grid
is run under it."""

import ast
import importlib
import sys
import types
from pathlib import Path

import quiverglue
import quiverglue.cli  # noqa: F401  (the tracer patches every package module)
from quiverglue.aside import build_aside
from quiverglue.gluing import GluingSpec, StackyCurveSpec
from quiverglue.mirror import twisted_gluing
from quiverglue.perms import swap

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _targets():
    """TARGETS from bench/tracing.py, read without importing it."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {TRACING}")


def test_every_traced_target_resolves():
    targets = _targets()
    assert targets
    for module, cls, attr, _ in targets:
        owner = importlib.import_module(f"quiverglue.{module}")
        if cls is None:
            assert callable(getattr(owner, attr, None)), f"{module}.{attr}"
        else:
            # methods are patched in the class's own namespace
            assert attr in vars(getattr(owner, cls)), f"{module}.{cls}.{attr}"


def _bench_module(name, monkeypatch):
    """bench/<name>.py executed from its source text under its own name,
    so that the bench modules import each other and nothing is written
    under bench/."""
    path = TRACING.parent / f"{name}.py"
    module = types.ModuleType(name)
    module.__file__ = str(path)
    monkeypatch.setitem(sys.modules, name, module)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_tracer_runs_an_item_of_each_grid(monkeypatch, tmp_path):
    # The tracer counts results through the package's public API (the
    # aside counts read num_vertices and len(q.arrows)), so an API change
    # shows here first.
    tracing = _bench_module("tracing", monkeypatch)
    _bench_module("grids", monkeypatch)
    workloads = _bench_module("workloads", monkeypatch)
    glue = GluingSpec("linear", (1, 3, 3, 1), (swap(0, 1, 3), swap(0, 1, 3)))
    ring = StackyCurveSpec("ring", (2, 2), (1, 1))
    cli = workloads.CliLadder()
    # the first ext item, Hom tables of two complexes over a raw quiver
    ext = next(unit for unit in cli.inputs(quiverglue, 0, tmp_path)
               if unit[0]["cmd"] == "ext")
    items = [
        (workloads.GlueGrid(), glue),
        (workloads.MirrorGrid(), (ring, True)),
        (workloads.LocGrid(), (glue, [("E-", 2, 1)])),
        (cli, ext),
    ]
    # each item but the ext one builds one aside quiver
    asides = [build_aside(g) for g in (glue, twisted_gluing(ring), glue)]
    original = quiverglue.gluing.predicted_topology
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert quiverglue.gluing.predicted_topology is not original
        tracer.begin_pass()
        for wl, unit in items:
            rec = workloads.Recorder(wl.name, tmp_path / "failures.jsonl")
            assert wl.run_unit(quiverglue, unit, rec) == 1
            assert (rec.attempted, rec.failed) == (1, 0)
        counts = tracer.snapshot()["counts"]
    finally:
        tracer.uninstall()
    assert quiverglue.gluing.predicted_topology is original
    assert not (tmp_path / "failures.jsonl").exists()
    # one glue, one mirror (with its blind search), one loc and one ext
    # item reach every work counter: module_of builds no HomComplex, so
    # the ext item's Hom tables count the hom basis and the paths
    assert set(counts) == set(tracing.WORK_COUNTS)
    assert {name: n for name, n in counts.items() if n <= 0} == {}
    assert counts["aside.vertices"] == sum(q.num_vertices for q in asides)
    assert counts["aside.arrows"] == sum(q.num_arrows for q in asides)
