"""ruthvb benchmark: one workload, one seed, one run.

Usage, from the repository root:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Set-up generates the workload's items from the seed, validates them and
writes the command-line input documents; it is repeated SETUP_REPEATS times
and its median is ``setup_s``.  The timed phase then runs passes over the
fixed item set, building every bundle fresh, until the next pass would
overrun ``--seconds`` (at least one pass).  ``wall_s`` and ``cpu_s`` are the
medians over passes; ``cpu_s`` includes command-line subprocesses.

With ``--trace 1`` the run alternates an untraced and a traced pass and
reports the per-layer metrics instead: times are medians over traced passes,
counts come from one pass (they repeat exactly), and ``trace.overhead`` is the
traced pass wall time over the untraced one.

The last line of standard output is the result object; the line before it
records the Python version, the processor count, the seed and per-pass data.
``--smoke`` runs tiny item sets for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 11


def _import_library():
    """Import ruthvb from this checkout's sources, never from elsewhere."""
    init = os.path.join(SRC, "ruthvb", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"benchmark error: {init} not found; run from a full checkout")
    sys.path[:0] = [SRC, ROOT]
    import ruthvb

    if os.path.realpath(ruthvb.__file__) != os.path.realpath(init):
        raise SystemExit(f"benchmark error: ruthvb imported from {ruthvb.__file__}, not {init}")


def _cpu_now() -> float:
    """CPU seconds of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def run_pass(items, ctx, failures: list) -> int:
    """Run every item once; returns the number of wrong verdicts or errors."""
    failed = 0
    for item in items:
        try:
            ok = bool(item.run(ctx))
        except Exception:  # a crash is a wrong verdict; keep measuring
            ok = False
            if len(failures) < 5:
                failures.append(item.label + ": " + traceback.format_exc(limit=3))
        if ctx.tracer is not None:
            ctx.tracer.end_item()
        if not ok:
            failed += 1
            if len(failures) < 5 and not any(f.startswith(item.label) for f in failures):
                failures.append(item.label + ": unexpected verdict")
    return failed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny item sets, for the benchmark's tests")
    args = p.parse_args(argv)

    _import_library()
    from perfbench.trace import Tracer, layer_metrics
    from perfbench.workloads import WORKLOADS, PassContext, reset_dir

    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choices: {', '.join(WORKLOADS)}")
    setup = WORKLOADS[args.workload]
    work_dir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")

    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            reset_dir(work_dir)
            t0 = time.perf_counter()
            items = setup(args.seed, work_dir, args.smoke)
            setup_times.append(time.perf_counter() - t0)

        failures: list[str] = []
        attempted = failed = 0
        walls, cpus, traced_walls, outside, layers = [], [], [], [], []
        start = time.perf_counter()
        while True:
            ctx = PassContext()
            w0, c0 = time.perf_counter(), _cpu_now()
            failed += run_pass(items, ctx, failures)
            walls.append(time.perf_counter() - w0)
            cpus.append(_cpu_now() - c0)
            attempted += len(items)
            outside.append(ctx.outside)
            step = walls[-1]
            if args.trace:
                tracer = Tracer()
                ctx = PassContext(tracer)
                tracer.install()
                w0 = time.perf_counter()
                try:
                    failed += run_pass(items, ctx, failures)
                finally:
                    tracer.uninstall()
                traced_walls.append(time.perf_counter() - w0)
                attempted += len(items)
                layers.append(layer_metrics(tracer))
                step += traced_walls[-1]
            if time.perf_counter() - start + step > args.seconds:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)

    med = statistics.median
    if args.trace:
        metrics = {}
        for name, (value, unit) in layers[-1].items():
            if unit == "s":
                value = med(layer[name][0] for layer in layers)
            metrics[name] = {"value": value, "unit": unit}
        for name in ("cli.build_sdp.wall_s", "cli.split.wall_s"):
            metrics[name] = {"value": med(o.get(name, 0.0) for o in outside), "unit": "s"}
        metrics["trace.wall_s"] = {"value": med(traced_walls), "unit": "s"}
        metrics["trace.untraced_wall_s"] = {"value": med(walls), "unit": "s"}
        metrics["trace.overhead"] = {"value": med(traced_walls) / med(walls), "unit": "ratio"}
    else:
        metrics = {
            "wall_s": {"value": med(walls), "unit": "s"},
            "cpu_s": {"value": med(cpus), "unit": "s"},
            "setup_s": {"value": med(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
        }
    info = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "smoke": args.smoke,
        "items_per_pass": len(items),
        "controls": [i.label for i in items if i.control],
        "passes": len(walls),
        "pass_wall_s": walls,
        "traced_pass_wall_s": traced_walls,
        "setup_s": setup_times,
        "failed_frac": {"value": failed / attempted, "unit": "frac"},
        "failures": failures,
    }
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
