"""Fast self-test of the benchmark itself (about 5 s on 2 cores).

    python3 perfbench/selftest.py

Runs every workload at a small size through the traced loop and checks that
* BENCHMARK.json names exactly the metrics and units the benchmark prints,
* every reported metric is a finite number with a unit in the result line,
* the trace schema holds: every parent link resolves to an enclosing span
  of the same op, and every span's self time is non-negative,
* the counts later changes may cite repeat exactly from op to op,
* without the package sources the benchmark exits non-zero and prints no
  result.
Exits non-zero on the first failed check.
"""

import contextlib
import io
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from run import END_TO_END, OUT, ROOT, WARMUP_M, WORKLOADS, import_bdsde, report, run_ops
from spans import PER_LAYER, Tracer

# counts a later change may cite; each must repeat exactly from op to op
EXACT_COUNTS = ("regression.cell_index.calls_per_step", "solver.eval_g.calls_per_step",
                "oracles.restart_solves", "solver.steps")


def check(cond, what):
    if not cond:
        sys.exit(f"selftest FAILED: {what}")


def check_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END,
          "BENCHMARK.json end_to_end differs from the printed end-to-end metrics")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER,
          "BENCHMARK.json per_layer differs from the printed per-layer metrics")
    check({w["name"] for w in spec["workloads"]} == set(WORKLOADS),
          "BENCHMARK.json workloads differ from the benchmark's workloads")


def check_result_line(metrics, units):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        report(True, 1, 0, metrics, units)
    result = json.loads(buf.getvalue().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"result keys {sorted(result)}")
    check(set(result["metrics"]) == set(units), "a metric is missing from the result")
    for name, entry in result["metrics"].items():
        check(entry["unit"] == units[name] and math.isfinite(entry["value"]),
              f"metric {name} = {entry}")


def check_spans(tracer):
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for i, (name, start, end, parent, op) in enumerate(spans):
        check(start <= end, f"span {i} ({name}) ends before it starts")
        if parent is not None:
            check(0 <= parent < i, f"span {i} ({name}) has parent {parent}")
            p = spans[parent]
            check(p[4] == op and p[1] <= start and end <= p[2],
                  f"span {i} ({name}) lies outside its parent {p}")
            child_time[parent] += end - start
    for i, (name, start, end, _, _) in enumerate(spans):
        check(end - start - child_time[i] >= -1e-9, f"span {i} ({name}) self time < 0")


def check_bare_directory(workdir):
    """A directory holding only BENCHMARK.json and perfbench/ has no program."""
    bare = workdir / "bare"
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "solve-ref",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")


def main():
    check_benchmark_json()
    bdsde = import_bdsde()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        for name, cls in WORKLOADS.items():
            workload = cls(bdsde, workdir, M=WARMUP_M)
            tracer = Tracer(bdsde)
            ops = run_ops(workload, 1, 1, tracer)
            check(ops.failed == 0, f"{name}: {ops.failed} small ops failed")
            overhead = (statistics.median(t for _, t in ops.traced)
                        - statistics.median(ops.plain))
            metrics = tracer.summary([op for op, _ in ops.traced], overhead)
            check_result_line(metrics, PER_LAYER)
            check_spans(tracer)
            per_op = [tracer.op_metrics(op) for op, _ in ops.traced]
            for count in EXACT_COUNTS:
                seen = {m[count] for m in per_op}
                check(len(seen) == 1, f"{name}: {count} differs between ops: {seen}")
            print(f"{name}: {ops.attempted} small ops, {len(tracer.spans)} spans ok")
        check_result_line({name: 1.0 for name in END_TO_END}, END_TO_END)
        check_bare_directory(workdir)
    print("selftest passed")


if __name__ == "__main__":
    main()
