"""Layered benchmark for quiverglue.

    python3 bench/run.py --workload glue_grid --seed 1729 --seconds 15 --trace 0
    python3 bench/run.py --workload all

Run from the root of a checkout: the package is imported from ``src/``
there.  Each workload runs single-threaded in one process.  Set-up (a
fresh import of the package plus input generation) is repeated and its
median reported as ``setup_s``.  With ``--trace 0`` the items are
timed for ``--seconds`` and the end-to-end metrics are printed; with
``--trace 1`` a fixed sample of items runs alternately untraced and
traced, and the per-layer metrics are printed.  The metric names and
units come from ``BENCHMARK.json``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

Failures (with reproducer specs), traced spans and a full result
record go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import grids
from tracing import Tracer
from workloads import WORKLOADS, Recorder

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
PACKAGE = "quiverglue"
SETUP_REPEATS = 7
WARMUP_S = 0.5
WINDOW_S = 1.0

# Work is timed in CPU seconds of this single-threaded process: on an
# idle machine that equals wall time, and on a shared one it leaves out
# the stretches in which the host runs someone else.  Wall time only
# bounds how long a run lasts.
clock = time.process_time
wall = time.perf_counter


def fresh_import():
    """Import the package from scratch, dropping any earlier import."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    qg = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    return qg


# Machine speed.  On a shared host the speed of the CPU also drifts, by
# tens of percent between runs and within one, for reasons outside the
# program.  A fixed pure-Python kernel is timed right before and after
# each timed stretch; its rate over REFERENCE_RATE is the speed factor
# of that stretch.  Times are multiplied by it and rates divided by it,
# which expresses them in CPU seconds of a machine running the kernel at
# REFERENCE_RATE (its median rate on a 2.0 GHz Xeon with CPython 3.11).
# Uncalibrated wall-clock figures are kept in the result record.
REFERENCE_RATE = 1800.0
CALIBRATION_S = 0.01
STRETCH_S = 0.2


def _kernel() -> int:
    table = {}
    for i in range(2000):
        table[(i, i % 7)] = i * 3 % 11
    return sum(table.values())


def machine_speed() -> float:
    """Kernel calls per second over CALIBRATION_S, over REFERENCE_RATE."""
    calls, t0 = 0, clock()
    while True:
        _kernel()
        calls += 1
        elapsed = clock() - t0
        if elapsed >= CALIBRATION_S:
            return calls / elapsed / REFERENCE_RATE


def setup(wl, seed: int, work: Path):
    """Median time, in reference seconds, of SETUP_REPEATS fresh imports
    plus input generation; the package and inputs of the last repeat
    are kept."""
    times, raw = [], []
    speed = machine_speed()
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        qg = fresh_import()
        units = wl.inputs(qg, seed, work)
        raw.append(clock() - t0)
        after = machine_speed()
        times.append(raw[-1] * (speed + after) / 2)
        speed = after
    return qg, units, statistics.median(times), raw


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def timed_run(wl, qg, units, rec: Recorder, seconds: float) -> dict:
    """Warm up, then run items in windows until ``seconds`` have passed.
    A window is one second on the grids and one whole pass of the item
    list on the CLI workload, whose items differ widely.  Throughput is
    the median window rate.  The machine speed is sampled every
    STRETCH_S of work; each stretch's time and item latencies are scaled
    by the mean of the samples at its two ends."""
    n = len(units)
    by_pass = wl.trace_units is None
    k = 0
    warm_end = wall() + WARMUP_S
    while wall() < warm_end or (by_pass and k % n):
        wl.run_unit(qg, units[k % n], rec)
        k += 1
    rates, cpu_rates, wall_rates, speeds, latencies = [], [], [], [], []
    t_start = wall()
    speed = machine_speed()
    while wall() - t_start < seconds:
        w_items = 0
        w_time = w_cpu = w_wall = 0.0  # reference, CPU and wall seconds
        w_speeds = []
        closed = False
        while not closed:
            first, start, wall_start = len(rec.latencies), clock(), wall()
            while True:
                w_items += wl.run_unit(qg, units[k % n], rec)
                k += 1
                now = clock()
                pass_done = by_pass and k % n == 0
                if pass_done or now - start >= STRETCH_S:
                    break
            w_wall += wall() - wall_start
            after = machine_speed()
            factor = (speed + after) / 2
            speed = after
            w_cpu += now - start
            w_time += (now - start) * factor
            w_speeds.append(factor)
            latencies.extend(t * factor for t in rec.latencies[first:])
            closed = pass_done if by_pass else w_cpu >= WINDOW_S
        rates.append(w_items / w_time)
        cpu_rates.append(w_items / w_cpu)
        wall_rates.append(w_items / w_wall)
        speeds.append(statistics.mean(w_speeds))
    cpu = rec.latencies[-len(latencies):]
    return {
        "items_per_s": statistics.median(rates),
        "item_p50_ms": statistics.median(latencies) * 1e3,
        "item_p99_ms": percentile(latencies, 99) * 1e3,
        "latency_samples": len(latencies),
        "window_rates": rates,
        "window_speeds": speeds,
        "uncalibrated": {
            "cpu_items_per_s": statistics.median(cpu_rates),
            "wall_items_per_s": statistics.median(wall_rates),
            "cpu_item_p50_ms": statistics.median(cpu) * 1e3,
            "cpu_item_p99_ms": percentile(cpu, 99) * 1e3,
        },
    }


def traced_run(wl, qg, units, rec: Recorder, seconds: float, spans_path: Path) -> dict:
    """After one warm-up pass, alternate untraced and traced passes over
    a fixed sample until ``seconds`` have passed (at least two traced
    passes).  The work counts of every traced pass must agree exactly."""
    sample = units if wl.trace_units is None else units[: wl.trace_units]
    tracer = Tracer()
    untraced, traced, snaps = [], [], []
    for unit in sample:
        wl.run_unit(qg, unit, rec)
    origin = wall()
    while len(snaps) < 2 or wall() - origin < seconds:
        for tracing in (False, True):
            if tracing:
                tracer.install()
                tracer.begin_pass()
            t0 = clock()
            items = sum(wl.run_unit(qg, unit, rec) for unit in sample)
            rate = items / (clock() - t0)
            if tracing:
                tracer.uninstall()
                traced.append(rate)
                snaps.append(tracer.snapshot())
            else:
                untraced.append(rate)
    mismatches = [
        key
        for key in ("calls", "counts")
        for snap in snaps[1:]
        if snap[key] != snaps[0][key]
    ]
    calls, counts = snaps[0]["calls"], snaps[0]["counts"]
    values = {}
    for name in tracer.names:
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.self_s"] = statistics.median(s["self_s"][name] for s in snaps)
    values.update(counts)
    hom = calls["homology.HomComplex"]
    witness = counts["quiver.find_isomorphism.witness_checks"]
    values["homology.HomComplex.per_object"] = hom / items
    values["quiver.paths_between.per_hom_complex"] = (
        calls["quiver.paths_between"] / hom if hom else 0.0
    )
    values["quiver.find_isomorphism.hit_ratio"] = (
        calls["quiver.find_isomorphism"] / witness if witness else 0.0
    )
    values["trace.items_per_s"] = statistics.median(traced)
    values["trace.overhead"] = statistics.median(untraced) / statistics.median(traced) - 1
    span_count = tracer.write_spans(spans_path, origin)
    return {
        "values": values,
        "sample_items": items,
        "traced_passes": len(snaps),
        "untraced_items_per_s": untraced,
        "traced_items_per_s": traced,
        "work_counts_repeat": not mismatches,
        "mismatched": sorted(set(mismatches)),
        "spans": span_count,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer" if trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    failures = OUT / f"failures-{tag}.jsonl"
    failures.unlink(missing_ok=True)
    work = OUT / f"work-{name}-{os.getpid()}"
    work.mkdir()

    qg, units, setup_s, setup_raw = setup(wl, seed, work)
    # The inputs live for the whole run; keep them out of the collector's
    # generations so collections cost what the program's own objects cost.
    gc.collect()
    gc.freeze()
    rec = Recorder(name, failures)
    record = {
        "workload": name,
        "environment": environment(seed),
        "units": len(units),
        "grid_items": wl.item_count(units),
        "setup_raw_s": setup_raw,
    }
    ok = True
    if trace:
        detail = traced_run(wl, qg, units, rec, seconds, OUT / f"spans-{name}.tsv")
        values = detail.pop("values")
        ok = detail["work_counts_repeat"]
    else:
        detail = timed_run(wl, qg, units, rec, seconds)
        values = {k: detail[k] for k in ("items_per_s", "item_p50_ms", "item_p99_ms")}
        values["setup_s"] = setup_s
        values["max_strips_ok"] = values["verify_max_strips_ok"] = rec.max_strips_ok
        if name == "cli_ladder":
            detail["ladder"] = wl.ladder(qg, work)
            for cmd, metric in (("localize", "max_strips_ok"), ("verify", "verify_max_strips_ok")):
                values[metric] = max(
                    [r["strips"] for r in detail["ladder"][cmd] if r["outcome"] == "ok"],
                    default=0,
                )
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    shutil.rmtree(work)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record.update(detail)
    record.update(
        attempted=rec.attempted,
        failed=rec.failed,
        fail_frac=rec.failed / rec.attempted,
        metrics=metrics,
    )
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"{name}: seed {seed}, {record['grid_items']} items in the grid, "
          f"{rec.attempted} attempted, {rec.failed} failed "
          f"(fail_frac {record['fail_frac']:.6g})")
    if trace:
        print(f"  {detail['traced_passes']} traced passes over {detail['sample_items']} "
              f"items; work counts repeat: {detail['work_counts_repeat']}")
    else:
        print(f"  {detail['latency_samples']} latency samples, "
              f"{len(detail['window_rates'])} throughput windows")
        for cmd, rungs in detail.get("ladder", {}).items():
            for rung in rungs:
                print(f"  ladder {cmd} {rung['strips']} strips: {rung['outcome']} "
                      f"({rung['seconds']:.3f} s)")
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    return {
        "correct": ok and rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }


def run_all(args) -> dict:
    """Every workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"{name} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = m
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=grids.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measuring time; default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
