"""The four workloads: their inputs, their per-item checks, and the CLI
capacity ladder.

Every item runs both routes the package offers for its quantity and
compares them; an exception or a disagreement makes the item a failure
with a reproducer, never a faster item.  The package is reached through
module attributes at call time (``qg.surface.surface_topology``), so
the tracer's replacements are seen.
"""

from __future__ import annotations

import json
import signal
import time
from pathlib import Path

import grids

clock = time.process_time  # CPU seconds; see run.py


class Recorder:
    """Per-item latencies, failures and the largest input that passed.
    Failures go to a JSON-lines file, one reproducer each."""

    def __init__(self, workload: str, failure_path: Path) -> None:
        self.workload = workload
        self.failure_path = failure_path
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.max_strips_ok = 0

    def item(self, seconds: float, problems: list[str], strips: int, spec) -> None:
        self.latencies.append(seconds)
        self.attempted += 1
        if not problems:
            self.max_strips_ok = max(self.max_strips_ok, strips)
            return
        self.failed += 1
        record = {"workload": self.workload, "problems": problems, "spec": spec()}
        with open(self.failure_path, "a") as fh:
            fh.write(json.dumps(record) + "\n")


def _error(exc: BaseException) -> list[str]:
    return [f"{type(exc).__name__}: {exc}"]


# -- glue_grid -----------------------------------------------------------


class GlueGrid:
    """Closed-form topology against the surface oracle, then the aside
    quiver's vertex count against the oracle's K0 rank."""

    name = "glue_grid"
    trace_units = 3000

    def inputs(self, qg, seed: int, work: Path) -> list:
        return grids.glue_grid(qg, seed)

    def item_count(self, units) -> int:
        return len(units)

    def run_unit(self, qg, g, rec: Recorder) -> int:
        t0 = clock()
        try:
            predicted = qg.gluing.predicted_topology(g)
            oracle = qg.surface.surface_topology(g)
            q = qg.aside.build_aside(g)
            problems = []
            if predicted != oracle:
                problems.append(f"topology: closed form {predicted} vs oracle {oracle}")
            if q.num_vertices != oracle.k0_rank:
                problems.append(
                    f"k0: {q.num_vertices} vertices vs K0 rank {oracle.k0_rank}"
                )
        except Exception as exc:
            problems = _error(exc)
        rec.item(clock() - t0, problems, sum(g.ranks), lambda: json.loads(g.to_json()))
        return 1


# -- mirror_grid ---------------------------------------------------------


class MirrorGrid:
    """Both quivers of every curve, matched under the canonical map with
    the curve topology against the oracle; every BLIND_EVERY-th curve of
    the visit order is also matched by the blind isomorphism search."""

    name = "mirror_grid"
    trace_units = 400
    BLIND_EVERY = 8

    def inputs(self, qg, seed: int, work: Path) -> list:
        curves = grids.mirror_grid(qg, seed)
        return [(c, k % self.BLIND_EVERY == 0) for k, c in enumerate(curves)]

    def item_count(self, units) -> int:
        return len(units)

    def run_unit(self, qg, unit, rec: Recorder) -> int:
        c, blind = unit
        t0 = clock()
        try:
            g = qg.mirror.twisted_gluing(c)
            bq = qg.bside.build_bside(c)
            aq = qg.aside.build_aside(g)
            report = qg.mirror.verify_theorem_A(c, aside_quiver=aq, bside_quiver=bq)
            problems = [
                f"{check.name}: {'; '.join(check.details) or 'failed'}"
                for check in report.checks
                if not check.ok
            ]
            if blind:
                witness = qg.quiver.find_isomorphism(bq, aq)
                if witness is None:
                    problems.append("blind search found no isomorphism")
                elif not qg.quiver.map_equals(bq, aq, witness).ok:
                    problems.append("blind witness fails map_equals")
        except Exception as exc:
            problems = _error(exc)
        spec = lambda: {**json.loads(c.to_json()), "blind": blind}
        rec.item(clock() - t0, problems, sum(c.ranks), spec)
        return 1


# -- loc_grid ------------------------------------------------------------


class LocGrid:
    """Every localization object of the restricted grid: its module by
    hom-complex cohomology against the combinatorial prediction.  One
    unit is one gluing, whose aside quiver is built once and shared by
    its objects; the items are the objects."""

    name = "loc_grid"
    trace_units = 150

    def inputs(self, qg, seed: int, work: Path) -> list:
        return grids.loc_grid(qg, seed)

    def item_count(self, units) -> int:
        return sum(len(selectors) for _, selectors in units)

    def run_unit(self, qg, unit, rec: Recorder) -> int:
        g, selectors = unit
        strips = sum(g.ranks)
        homology = qg.homology
        try:
            aq = qg.aside.build_aside(g)
        except Exception as exc:
            for sel in selectors:
                rec.item(0.0, _error(exc), strips, lambda: self._spec(g, sel))
            return len(selectors)
        for sel in selectors:
            kind, i, j = sel
            t0 = clock()
            try:
                mod = homology.module_of(homology.localization_object(aq, kind, i, j))
                predicted = homology.predicted_module(aq, kind, i, j)
                problems = []
                if mod.degree is None:
                    problems.append("module has no degree")
                if not set(mod.dims.values()) <= {0, 1}:
                    problems.append(f"module is not thin: {mod.dims}")
                if not mod.same_pattern(predicted):
                    problems.append("module differs from the prediction")
            except Exception as exc:
                problems = _error(exc)
            rec.item(clock() - t0, problems, strips, lambda: self._spec(g, sel))
        return len(selectors)

    @staticmethod
    def _spec(g, sel) -> dict:
        kind, i, j = sel
        return {**json.loads(g.to_json()), "selector": f"{kind}:{i}:{j}"}


# -- cli_ladder ----------------------------------------------------------


def _check_cli_output(item: dict, text: str) -> list[str]:
    cmd, fmt, check = item["cmd"], item["format"], item["check"]
    lines = text.strip().splitlines()
    if not lines:
        return ["empty output"]
    data = json.loads(text) if fmt == "json" and cmd != "sweep" else None
    ok = True
    if cmd == "topology":
        ok = data["agree"] is True if data is not None else lines[-1] == "AGREE"
    elif cmd in ("aside", "bside"):
        n = check["vertices"]
        if data is not None:
            ok = len(data["vertices"]) == n
        elif fmt == "dot":
            ok = sum(1 for l in lines if "[label=" in l and "->" not in l) == n
        else:
            ok = lines[0].startswith(f"{n} vertices,")
    elif cmd == "verify":
        ok = data["pass"] is True if data is not None else lines[-1] == "RESULT: PASS"
    elif cmd == "localize":
        if data is not None:
            ok = data["degree"] is not None and set(data["dims"].values()) == {1}
        else:
            ok = lines[0].startswith("module of") and len(lines) > 1
    elif cmd == "ext":
        ok = len(data if data is not None else lines) == check["pairs"]
    elif cmd == "search":
        if data is not None:
            ok = bool(data)
        else:
            head = f"genus {check['genus']}, {check['components']} component(s): twists ["
            ok = lines[0].startswith(head) and not lines[0].endswith("[]")
    elif cmd == "sweep":
        ok = lines[-1] == "RESULT: PASS"
    return [] if ok else [f"unexpected {cmd} output: {lines[-1][:200]}"]


class CliLadder:
    """In-process ``cli.main`` over seeded spec files covering every
    subcommand, then the capacity ladder."""

    name = "cli_ladder"
    # None: the trace sample is the whole item list, and so is each
    # throughput window, since the items differ widely in cost.
    trace_units = None

    LADDER_LIMIT_S = 40.0

    def inputs(self, qg, seed: int, work: Path) -> list:
        units = []
        for k, item in enumerate(grids.cli_items(seed)):
            paths = {}
            for key, obj in item["files"].items():
                path = work / f"item{k}-{key}.json"
                path.write_text(json.dumps(obj))
                paths[key] = str(path)
            argv = [item["cmd"]]
            for arg in item["args"]:
                is_file = arg.startswith("{") and arg.endswith("}")
                argv.append(paths[arg[1:-1]] if is_file else arg)
            out = str(work / f"item{k}.out")
            argv += ["--format", item["format"], "--out", out]
            units.append((item, argv, out))
        return units

    def item_count(self, units) -> int:
        return len(units)

    def run_unit(self, qg, unit, rec: Recorder) -> int:
        item, argv, out = unit
        t0 = clock()
        try:
            code = qg.cli.main(argv)
        except (Exception, SystemExit) as exc:
            code, problems = None, _error(exc)
        elapsed = clock() - t0
        if code is not None:
            if code != 0:
                problems = [f"exit code {code}"]
            else:
                try:
                    problems = _check_cli_output(item, Path(out).read_text())
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    problems = _error(exc)
        spec = lambda: {"argv": argv, "files": item["files"]}
        rec.item(elapsed, problems, item["strips"], spec)
        return 1

    def ladder(self, qg, work: Path) -> dict[str, list[dict]]:
        """Each laddered subcommand on ever larger specs, stopping at the
        first rung that fails, disagrees with the closed form, or runs
        past the per-operation limit of CPU time, which interrupts it."""
        rungs = {cmd: [] for cmd in grids.ladder_probes(1)}
        for cmd, climbed in rungs.items():
            for strips in grids.LADDER:
                spec, extra = grids.ladder_probes(strips)[cmd]
                path = work / f"ladder-{cmd}{strips}.json"
                path.write_text(json.dumps(spec))
                out = work / f"ladder-{cmd}{strips}.out"
                argv = [cmd, "--spec", str(path), *extra,
                        "--format", "json", "--out", str(out)]
                t0 = clock()
                outcome = self._rung(qg, argv)
                elapsed = clock() - t0
                if outcome == "ok" and not _ladder_output_ok(cmd, out):
                    outcome = "output differs from the closed form"
                climbed.append({"strips": strips, "seconds": elapsed, "outcome": outcome})
                if outcome != "ok":
                    break
        return rungs

    def _rung(self, qg, argv: list[str]) -> str:
        previous = signal.signal(signal.SIGPROF, _interrupt)
        signal.setitimer(signal.ITIMER_PROF, self.LADDER_LIMIT_S)
        try:
            code = qg.cli.main(argv)
            return "ok" if code == 0 else f"exit code {code}"
        except LadderTimeout:
            return f"over the {self.LADDER_LIMIT_S:g} s limit"
        except (Exception, SystemExit) as exc:
            return f"{type(exc).__name__}: {str(exc)[:200]}"
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)


def _ladder_output_ok(cmd: str, out: Path) -> bool:
    """localize on the chain gives k at P-(1,1) in degree -1 with no
    actions (only the trivial path reaches the cone tip without the
    collapsed arrow); verify passes every check."""
    data = json.loads(out.read_text())
    if cmd == "localize":
        return (data["degree"], data["dims"], data["actions"]) == (-1, {"P-(1,1)": 1}, {})
    return data["pass"] is True


class LadderTimeout(BaseException):
    """Raised by the CPU-time alarm inside a ladder rung; a BaseException
    so no handler in the package can swallow it."""


def _interrupt(signum, frame):
    raise LadderTimeout


WORKLOADS = {w.name: w for w in (GlueGrid(), MirrorGrid(), LocGrid(), CliLadder())}
