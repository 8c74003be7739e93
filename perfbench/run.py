"""renlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload, each in a fresh process

Run from the repository root.  The program is imported from ``src/`` of the
tree this file sits in; without it the benchmark exits with code 2.  Each
workload sets up its inputs from ``--seed`` (three times; ``setup_s`` is the
import time plus the median build), then repeats one fixed unit of work for
about ``--seconds`` seconds, closed loop in one process.  ``wall_s`` and
``cpu_s`` are medians per unit; all three times are scaled to a reference
machine speed (see ``REF_S``).  With ``--trace 1`` every second unit runs
with the per-layer wrappers of ``tracing.py`` installed; the units between
stay untraced, so the traced run also checks that tracing changes no output.
The BLAS thread count is inherited, not pinned, so ``cpu_s`` includes BLAS
threads as users run them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, suppress
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_BUILDS = 3
HARD_STOP_S = 150.0  # start no unit after this, so a run ends well within 180 s
# End-to-end times are scaled to the speed at which the reference loop below
# takes REF_S seconds.  On a shared 2-vCPU VM the same work ran up to ~1.6x
# slower for seconds to minutes at a time.  The loop is timed between every
# two operations and slows with them, so scaled times hold where raw ones drift.
REF_S = 0.02  # about what the loop takes on a quiet 2.1 GHz Xeon vCPU


def _reference_s() -> float:
    """Median time of five short runs of a fixed pure-Python loop."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc, seen = 0, {}
        for i in range(150_000):
            acc = (acc + i * 7) % 1_000_003
            seen[i & 1023] = acc
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)  # all threads, BLAS included
    return ru.ru_utime + ru.ru_stime


class ScaledClock:
    """Raw and scaled wall and CPU time of a stretch of work.

    ``tick`` ends a segment and times the reference loop; each segment is
    scaled by REF_S over the mean reference time at its two ends.  The loop's
    own time is left out of every segment.
    """

    def __init__(self):
        self.ref = _reference_s()
        self.restart()

    def restart(self) -> None:
        self.totals = {"wall": 0.0, "cpu": 0.0, "scaled_wall": 0.0, "scaled_cpu": 0.0}
        self._wall, self._cpu = time.perf_counter(), _cpu()

    def tick(self) -> None:
        wall, cpu = time.perf_counter() - self._wall, _cpu() - self._cpu
        before, self.ref = self.ref, _reference_s()
        scale = REF_S / statistics.fmean((before, self.ref))
        for key, value in (("wall", wall), ("cpu", cpu)):
            self.totals[key] += value
            self.totals[f"scaled_{key}"] += value * scale
        self._wall, self._cpu = time.perf_counter(), _cpu()


def _environment(numpy) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError) as exc:
        blas = {"error": repr(exc)}
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def _run_all(args, bench) -> int:
    """Each workload in a fresh process; one combined result line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for wl in bench["workloads"]:
        proc = subprocess.run([sys.executable, __file__, "--workload", wl["name"],
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{wl['name']}.{name}"] = metric
    print(json.dumps(combined))
    return status


def _median_of(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts if k in d)
            for k in {k for d in dicts for k in d}}


def _set_up(workload, clock: ScaledClock, trace: bool):
    """Build the workload's inputs SETUP_BUILDS times (traced in a traced run)."""
    builds, layers, called = [], [], set()
    for _ in range(SETUP_BUILDS):
        tracer = tracing.Tracer()
        clock.restart()
        with tracing.traced(tracer) if trace else nullcontext():
            workload.setup()
        clock.tick()
        builds.append(clock.totals)
        layers.append(tracing.layer_metrics(tracer))
        called.update(name for name, n in tracer.calls.items() if n)
    return builds, layers, called


def _run_units(workload, clock: ScaledClock, args, called: set):
    """Closed loop of units for about ``args.seconds``; with ``--trace 1``
    units alternate untraced / traced.  Returns the units and the operation
    counts; an operation fails on None or on a digest unlike its first."""
    min_units = 3 if args.trace else 2
    plain, traced, first = [], [], {}
    attempted = failed = 0
    measure_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - measure_start
        done = len(plain) + len(traced)
        if done >= min_units:
            typical = statistics.median(u["elapsed"] for u in plain + traced)
            if elapsed + typical > args.seconds or elapsed > HARD_STOP_S:
                break
        tracer = tracing.Tracer() if args.trace and done % 2 == 1 else None
        started = time.perf_counter()
        clock.restart()
        with tracing.traced(tracer) if tracer else nullcontext():
            try:
                ops, info = workload.unit(clock.tick)
            except Exception:  # the unit's own bookkeeping broke: count it and stop
                traceback.print_exc()
                ops, info = {"unit": None}, {}
        clock.tick()
        unit = {**clock.totals, "elapsed": time.perf_counter() - started, "info": info}
        for op, digest in ops.items():
            attempted += 1
            failed += digest is None or digest != first.setdefault(op, digest)
        if tracer:
            unit["layers"] = tracing.layer_metrics(tracer)
            called.update(name for name, n in tracer.calls.items() if n)
            traced.append(unit)
        else:
            plain.append(unit)
        if "unit" in ops:
            break
    return plain, traced, attempted, failed


def main(argv=None) -> int:
    # imported below, once the source tree is checked, so setup_s counts them
    global tracing, workloads
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "renlab" / "__init__.py").is_file():
        print(f"error: no renlab source tree at {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return _run_all(args, bench)

    clock = ScaledClock()
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import numpy
    import renlab
    import tracing
    import workloads
    clock.tick()
    imported = clock.totals
    if Path(renlab.__file__).resolve().parent != SRC / "renlab":
        print(f"error: imported renlab from {renlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print("env " + json.dumps(_environment(numpy)))

    workload = workloads.WORKLOADS[args.workload](args.seed, WORK / args.workload)
    builds, setup_layers, called = _set_up(workload, clock, args.trace)
    setup = {k: imported[k] + statistics.median(b[k] for b in builds) for k in imported}
    try:
        plain, traced, attempted, failed = _run_units(workload, clock, args, called)
    finally:
        shutil.rmtree(WORK / args.workload, ignore_errors=True)
        with suppress(OSError):
            WORK.rmdir()

    info = _median_of([u["info"] for u in plain])
    # a wrapper on a name no caller looks up would silently read zero
    uncalled = sorted(set(workload.exercises) - called) if args.trace else []
    if uncalled:
        print(f"error: traced wrappers never called on {args.workload}: "
              f"{', '.join(uncalled)}", file=sys.stderr)
    if args.trace:
        in_setup = _median_of(setup_layers)
        per_unit = _median_of([u["layers"] for u in traced]) or in_setup
        values = {k: per_unit[k] + in_setup[k] for k in per_unit}
        values.update({k: info.get(k, 0.0) for k in workloads.INFO_METRICS})
        values["trace.overhead_ms"] = 1e3 * (
            statistics.median(u["scaled_wall"] for u in traced or plain)
            - statistics.median(u["scaled_wall"] for u in plain))
        wanted = bench["per_layer"]
    else:
        values = {
            "setup_s": setup["scaled_wall"],
            "wall_s": statistics.median(u["scaled_wall"] for u in plain),
            "cpu_s": statistics.median(u["scaled_cpu"] for u in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced + "
          f"{len(traced)} traced units, {attempted} operations, {failed} failed "
          f"(failed_ratio {failed / max(attempted, 1)})")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    if not args.trace:
        print("  wall_s per unit: " + " ".join(f"{u['scaled_wall']:.4f}" for u in plain))
        print(f"  unscaled: setup_s = {setup['wall']} s, wall_s = "
              f"{statistics.median(u['wall'] for u in plain)} s, cpu_s = "
              f"{statistics.median(u['cpu'] for u in plain)} s")
        for name in workloads.INFO_METRICS:
            if name in info:
                print(f"  {name} = {info[name]} {units[name]}")
    correct = failed == 0 and not uncalled
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
