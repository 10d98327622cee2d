"""Benchmark for hsagg, driven in process from one single-threaded process.

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 40 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
With ``--trace 0`` the run does the workload's pass several times and
measures the end-to-end metrics from each op's fastest time; with
``--trace 1`` it runs an untimed pass, then times an untraced pass, a
pass with every listed function of ``field``, ``matrix``, ``patterns``,
``protocol``, ``leakage`` and ``harness`` wrapped (see ``tracer.py``)
and another untraced pass, and reports the traced pass's per-function
calls and self time.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
End-to-end timings are CPU time of this process (see ``workloads.clock``).
"""

import argparse
import gc
import importlib
import json
import os
import pathlib
import resource
import statistics
import sys
import time
import typing

# numpy's BLAS starts a pool of threads on import, which would run beside
# the program's one thread; hsagg does no BLAS work.
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

from tracer import Tracer, metric_names
from workloads import WORKLOADS, Tally, clock

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_REPEATS = 4  # before the first pass, between passes and after the last


def fresh_hsagg() -> None:
    """Drop hsagg from ``sys.modules``, so that the next import loads it
    again; numpy stays imported.

    ``typing`` caches the generic aliases that hsagg's annotations build,
    such as ``Iterator[CommPattern]``, and through them would keep every
    dropped copy of hsagg alive, along with all it holds, and inflate
    ``peak_rss_mb`` with each pass.  Its cache-clearing hooks (private,
    but present in every supported Python) drop them.
    """
    for name in [m for m in sys.modules if m == "hsagg" or m.startswith("hsagg.")]:
        del sys.modules[name]
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    gc.collect()


def setup_times(workload) -> list[float]:
    """Times to import hsagg and ``protocol.setup`` every point."""
    times = []
    for _ in range(SETUP_REPEATS):
        fresh_hsagg()
        began = clock()
        points = workload.points()
        setup = importlib.import_module("hsagg.protocol").setup
        for params in points:
            setup(params)
        times.append(clock() - began)
    return times


def percentile(samples: list[float], pct: int) -> float:
    """The pct-th percentile, or the maximum when fewer than ten samples
    would lie beyond it."""
    if len(samples) * (100 - pct) < 1000:
        return max(samples)
    return statistics.quantiles(samples, n=100)[pct - 1]


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_pass(workload, args, tally):
    """One pass of the workload, and its CPU time.

    Callers drop hsagg first (``fresh_hsagg``), so that the pass imports
    it again and finds nothing the program cached in an earlier pass, as
    in a new process.  CPU time stands for the time to a result only
    while the program runs on this one thread, so the run is refused
    otherwise: more CPU than wall time means threads ran in parallel,
    and CPU time of children means work moved to other processes.
    """
    wall, cpu, children = time.perf_counter(), clock(), children_cpu()
    timings = workload.run(args.seed, args.seconds, tally)
    wall, cpu = time.perf_counter() - wall, clock() - cpu
    if children_cpu() > children or cpu > wall * 1.02:
        raise SystemExit(
            "the program did work outside this thread; the CPU-time metrics "
            "would misstate its time, so the benchmark needs a wall clock"
        )
    return timings, cpu


def best(samples: list[list[float]]) -> list[float]:
    """Each position's fastest time over the passes."""
    return [min(times) for times in zip(*samples, strict=True)]


def end_to_end(workload, args, tally) -> dict:
    """The end-to-end metrics, from each op's fastest time over the passes.

    Every pass does the same ops on the same inputs.  A shared host runs
    the same code at speeds that differ by 30% from one second to the
    next, and that drift over minutes moves the mean time of a pass;
    an op's fastest time is the one the host disturbed least, as with
    ``timeit``.  ``setup_s`` is likewise the fastest of the set-ups
    timed before, between and after the passes.
    """
    setups = setup_times(workload)
    passes = []
    for _ in range(workload.passes):
        fresh_hsagg()
        passes.append(run_pass(workload, args, tally)[0])
        setups += setup_times(workload)
    job_s = sum(best([p.job_s for p in passes]))
    op_s = best([p.op_s for p in passes])
    if not op_s:
        raise SystemExit("no operation completed; nothing to report")
    return {
        "setup_s": (min(setups), "s"),
        "job_s": (job_s, "s"),
        "ops_per_s": (len(op_s) / sum(op_s), "1/s"),
        "op_p90_ms": (percentile(op_s, 90) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pass_frac": (1 - tally.failed / tally.attempted, "ratio"),
    }


def per_layer(workload, args, tally) -> dict:
    """The per-layer metrics of one traced pass.

    An untimed pass first pays the process's first-call costs.  Then an
    untraced, the traced and another untraced pass are timed, and
    ``trace_overhead_ratio`` divides the traced pass's time by the mean
    of the two untraced ones around it, so that neither order nor a
    drift of the host's speed during the three favours one side.
    """
    untraced = []
    for traced_pass in (False, False, True, False):
        fresh_hsagg()
        if traced_pass:
            with Tracer() as tracer:
                _, traced = run_pass(workload, args, tally)
        else:
            untraced.append(run_pass(workload, args, tally)[1])
    values = tracer.metrics()
    values["trace_overhead_ratio"] = traced / statistics.fmean(untraced[1:])
    units = {"calls": "count", "self_s": "s"}
    return {
        name: (values[name], units.get(name.rpartition(".")[2], "ratio"))
        for name in metric_names()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "hsagg" / "__init__.py").is_file():
        print(f"hsagg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    tally = Tally()
    measure = per_layer if args.trace else end_to_end
    metrics = measure(workload, args, tally)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
