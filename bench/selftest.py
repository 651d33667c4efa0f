"""Smoke self-test of the benchmark: every workload at its smallest size.

    python3 bench/selftest.py

For each workload, runs ``bench/run.py --smoke`` once untraced and twice
traced, and asserts that

- the last stdout line is the result object, naming every metric of
  BENCHMARK.json (end-to-end or per-layer) with its unit and a finite value;
- every task kind of the workload ran its checks, and every valid task
  passed them;
- the per-layer counts repeat exactly between the two traced runs, and
  SplineEvaluator builds happen on the torus and CLI workloads but not on
  the circle one;

and that the benchmark refuses to run, without a result, from a directory
holding only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 7


def run(workload, trace, root=ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    return result


def check_metrics(result, declared):
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}, sorted(metrics)
    for m in declared:
        entry = metrics[m["name"]]
        assert entry["unit"] == m["unit"], (m["name"], entry)
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]), entry


def check_kinds(workload, trace):
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads

    expected = {task.kind for task in workloads.generate(workload, SEED, 1, smoke=True)[0]}
    record = json.loads((BENCH / "out" / f"{workload}-seed{SEED}-trace{trace}-smoke.json")
                        .read_text())
    kinds = record["kinds"]
    assert set(kinds) == expected, sorted(set(kinds) ^ expected)
    assert all(k["attempted"] >= 1 for k in kinds.values())
    return record


def counts(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in ("count", "bytes")}


def check_bare_directory_refused():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench")
    proc = run("cli-sweep", 0, root=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0, "ran without the densgeo sources"
    assert not proc.stdout.strip(), proc.stdout


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]]:
        timed = result_of(run(workload, 0))
        check_metrics(timed, spec["end_to_end"])
        assert timed["correct"], f"{workload}: a valid task failed"
        check_kinds(workload, 0)

        first, second = result_of(run(workload, 1)), result_of(run(workload, 1))
        check_metrics(first, spec["per_layer"])
        assert first["correct"], f"{workload}: a valid task failed under tracing"
        check_kinds(workload, 1)
        assert counts(first) == counts(second), f"{workload}: counts differ between runs"
        builds = first["metrics"]["interp.SplineEvaluator.build.calls"]["value"]
        assert (builds == 0) == (workload == "circle-spectral"), (workload, builds)
        print(f"selftest: {workload} ok ({timed['attempted']} timed tasks, "
              f"{timed['failed']} failed)")
    check_bare_directory_refused()
    print("selftest: bare directory refused ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
