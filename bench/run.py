"""densgeo benchmark: three seeded closed-loop workloads with closed-form checks.

    python3 bench/run.py --workload torus-integrators --seed 1 --seconds 25 --trace 0

One client in one process runs the workload's tasks back to back (a closed
loop), calling densgeo in-process.  With ``--trace 0`` the package runs
untouched and the end-to-end metrics are reported; with ``--trace 1`` a
fixed number of cycles each runs twice, untraced and traced, and the
per-layer metrics and the tracing overhead are reported.  Task and set-up
times are rescaled to a fixed host speed with a reference kernel timed
between tasks (see ``reference_s``).  Informational
lines start with ``bench:``; the last line of stdout is the result JSON.
``--smoke`` shrinks every task to its smallest size (used by selftest.py).
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# cycles generated per run, and the fixed cycle count of a traced run
CYCLES = {
    "torus-integrators": dict(pool=12, traced=2),
    "circle-spectral": dict(pool=12, traced=2),
    "cli-sweep": dict(pool=40, traced=8),
}
SETUP_REPEATS = 7
# ratios below this count as this (exact checks would otherwise give log(0))
RATIO_FLOOR = 1e-16
# reference_s() on an unloaded 2-vCPU x86-64 VM (Python 3.11, numpy 2.4);
# times are reported in seconds of a host running at this speed
REFERENCE_S = 1.4e-3
_REFERENCE_INPUT = np.random.default_rng(0).standard_normal(512)


def reference_s():
    """Wall time of a fixed kernel that does not touch densgeo: small FFTs,
    array arithmetic and a pure-Python loop, like the workloads' own mix.

    A shared host's speed swings by up to 40% within seconds, and every
    task slows with it.  The kernel runs before and after each task; the
    task's wall is multiplied by REFERENCE_S over the mean of those two
    kernel times.  A change to densgeo does not change the kernel, so it
    shows in full in the rescaled times."""
    start = time.perf_counter()
    for _ in range(60):
        np.dot(np.fft.irfft(np.fft.rfft(_REFERENCE_INPUT) * 0.5), _REFERENCE_INPUT)
    total = 0
    for i in range(3000):
        total += i * i
    return time.perf_counter() - start


@dataclass
class Outcome:
    kind: str
    seconds: float
    ratio: float | None
    error: str | None
    valid: bool
    key: tuple | None
    reference: float = REFERENCE_S  # mean reference_s() around the task

    @property
    def passed(self):
        return self.error is None

    @property
    def scaled(self):
        """Wall time at the host speed REFERENCE_S stands for."""
        return self.seconds * REFERENCE_S / self.reference


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CYCLES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest task sizes")
    return parser.parse_args(argv)


def measure_setup(workloads, workload, seed, cycles, smoke):
    """Median over repeats of a fresh interpreter's import plus input
    generation, rescaled like task times; also the unscaled median."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    walls, scaled = [], []
    before = reference_s()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import densgeo, densgeo.cli"],
                       env=env, cwd=ROOT, check=True)
        pool = workloads.generate(workload, seed, cycles, smoke)
        walls.append(time.perf_counter() - start)
        after = reference_s()
        scaled.append(walls[-1] * REFERENCE_S / (0.5 * (before + after)))
        before = after
    return statistics.median(scaled), statistics.median(walls), pool


def run_task(task, tracer=None):
    if tracer is not None:
        tracer.task_id += 1
    start = time.perf_counter()
    try:
        ratio, error = task.run(), None
    except Exception as exc:  # a failing task is counted, and the run goes on
        ratio, error = None, f"{type(exc).__name__}: {exc}"
    return Outcome(task.kind, time.perf_counter() - start, ratio, error, task.valid, task.key)


def run_cycles(pool, seconds, min_cycles, tracer=None):
    """Whole cycles until both ``min_cycles`` ran and ``seconds`` elapsed,
    with reference_s() between tasks.  Returns the outcomes per cycle."""
    cycles = []
    start = time.perf_counter()
    before = reference_s()
    while len(cycles) < min_cycles or time.perf_counter() - start < seconds:
        done = []
        for task in pool[len(cycles) % len(pool)]:
            outcome = run_task(task, tracer)
            after = reference_s()
            outcome.reference = 0.5 * (before + after)
            before = after
            done.append(outcome)
        cycles.append(done)
    return cycles


def trace_pass(tracing, workloads, pool, cycles):
    """Run each of the first ``cycles`` cycles untraced and traced, in
    alternating order so drift and first-run effects cancel in the overhead.
    Returns the outcomes, the rescaled wall per mode and the tracer."""
    # warm the full-size paths on inputs outside the measured cycles
    run_cycles(pool[-1:], 0, 1)
    tracer = tracing.Tracer()
    outcomes, walls = [], {False: 0.0, True: 0.0}
    for index in range(cycles):
        for traced in (False, True) if index % 2 == 0 else (True, False):
            restore = tracing.install(tracer, workloads) if traced else (lambda: None)
            try:
                [done] = run_cycles(pool[index:index + 1], 0, 1, tracer if traced else None)
            finally:
                restore()
            outcomes += done
            walls[traced] += sum(o.scaled for o in done)
    return outcomes, walls, tracer


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def repeat_share(outcomes):
    """Fraction of requests identical to an earlier one in the run (None
    for workloads whose tasks are not requests)."""
    keys = [o.key for o in outcomes if o.key is not None]
    seen, repeats = set(), 0
    for key in keys:
        repeats += key in seen
        seen.add(key)
    return repeats / len(keys) if keys else None


def by_kind(outcomes):
    summary = defaultdict(lambda: {"attempted": 0, "failed": 0, "ratios": [], "seconds": [],
                                   "first_error": None})
    for o in outcomes:
        entry = summary[o.kind]
        entry["attempted"] += 1
        entry["seconds"].append(o.seconds)
        if o.error is not None:
            entry["failed"] += 1
            entry["first_error"] = entry["first_error"] or o.error
        elif o.ratio is not None:
            entry["ratios"].append(o.ratio)
    return {
        kind: {"attempted": e["attempted"], "failed": e["failed"],
               "median_s": statistics.median(e["seconds"]),
               "median_err_over_tol": statistics.median(e["ratios"]) if e["ratios"] else None,
               "first_error": e["first_error"]}
        for kind, e in summary.items()
    }


def err_margin(kinds):
    """Decades between the worst kind's median error and its tolerance."""
    medians = [k["median_err_over_tol"] for k in kinds.values()
               if k["median_err_over_tol"] is not None]
    return -math.log10(max(max(medians), RATIO_FLOOR))


def host_record():
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **{var: os.environ.get(var) for var in
           ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "DENSGEO_THREADS")},
    }


def timings(cycles, setup_s, attr):
    """setup_s, tasks_per_s and the task time percentiles, from each
    outcome's ``attr`` ("scaled" or "seconds").  Every cycle holds the same
    task mix, so a percentile is taken per cycle and the median over the
    cycles reported: a short run's few samples per kind then cannot shift
    the rank onto another kind."""
    outcomes = [o for done in cycles for o in done]
    times = [[getattr(o, attr) for o in done] for done in cycles]

    def percentile(q):
        return statistics.median(nearest_rank(cycle, q) for cycle in times)

    return {
        "setup_s": (setup_s, "s"),
        "tasks_per_s": (sum(o.passed for o in outcomes) / sum(map(sum, times)), "1/s"),
        "task_s.p50": (percentile(0.5), "s"),
        "task_s.p90": (percentile(0.9), "s"),
    }


def end_to_end(cycles, setup_s, kinds):
    outcomes = [o for done in cycles for o in done]
    passed = sum(o.passed for o in outcomes)
    return {
        **timings(cycles, setup_s, "scaled"),
        "passed_frac": (passed / len(outcomes), "frac"),
        "err_margin_decades": (err_margin(kinds), "decades"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "densgeo" / "__init__.py").is_file():
        print(f"bench: no densgeo sources under {SRC}; run from a densgeo checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import densgeo

    if Path(densgeo.__file__).resolve().parent != SRC / "densgeo":
        print(f"bench: imported densgeo from {densgeo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    counts = CYCLES[args.workload]
    pool_size = 1 if args.smoke else counts["pool"]
    setup_s, setup_wall_s, pool = measure_setup(workloads, args.workload, args.seed,
                                                pool_size, args.smoke)
    # let lazy imports and first-call set-up finish before timing
    run_cycles(workloads.generate(args.workload, args.seed + 1, 1, smoke=True), 0, 1)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "host": host_record()}
    if args.trace:
        traced_cycles = 1 if args.smoke else counts["traced"]
        outcomes, walls, tracer = trace_pass(tracing, workloads, pool, traced_cycles)
        metrics = tracing.layer_metrics(tracer.spans)
        metrics["trace.overhead_s"] = (walls[True] - walls[False], "s")
        record.update(cycles=traced_cycles, untraced_wall_s=walls[False],
                      traced_wall_s=walls[True], spans=len(tracer.spans))
    else:
        cycles = run_cycles(pool, args.seconds, 1)
        outcomes = [o for done in cycles for o in done]
        host_speed = statistics.median(REFERENCE_S / o.reference for o in outcomes)
        unscaled = {name: v for name, (v, _) in
                    timings(cycles, setup_wall_s, "seconds").items()}
        record.update(cycles=len(cycles), wall_s=sum(o.seconds for o in outcomes),
                      host_speed=host_speed, unscaled=unscaled)

    kinds = by_kind(outcomes)
    if not args.trace:
        metrics = end_to_end(cycles, setup_s, kinds)
    failed = sum(not o.passed for o in outcomes)
    correct = all(o.passed for o in outcomes if o.valid)
    record.update(
        attempted=len(outcomes), failed=failed, correct=correct,
        repeat_share=repeat_share(outcomes), kinds=kinds,
        metrics={name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    )

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    if args.trace:
        tracer.write(OUT / f"{stem}.spans.jsonl.gz")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("bench: host " + json.dumps(record["host"]))
    print(f"bench: {record['cycles']} cycles, {len(outcomes)} task samples, "
          f"repeat share {record['repeat_share']}")
    if not args.trace:
        print(f"bench: host speed {host_speed:.3f} of nominal; unscaled "
              + json.dumps({name: round(v, 6) for name, v in unscaled.items()}))
    for kind, entry in sorted(kinds.items()):
        if entry["failed"]:
            print(f"bench: {kind}: {entry['failed']}/{entry['attempted']} failed, "
                  f"first: {entry['first_error']}")
    print(json.dumps({
        "correct": correct, "attempted": len(outcomes), "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
