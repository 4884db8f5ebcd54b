"""Benchmark of bdsde: three workloads run against the package's public API.

    python3 perfbench/run.py --workload solve-ref --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client on one thread: op r starts
when op r-1 has finished and is seeded ``seed + r``.  Every op's output is
checked; an op that raises or fails its check counts as failed.  The program
under test is the ``src/bdsde`` package of the checkout that holds this file,
never an installed copy.  Workload inputs live in ``perfbench/inputs`` so that
an edit to ``configs/`` cannot change a workload.

  solve-ref   sample_noise + solve on the reference config (M=32768, N=20)
  exit-time   sample_noise + simulate_stopped on the box (90, 110), N=640
  spde-field  cli.main(["spde-grid", ...]) at M=4096 on 9 spatial points

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced ops and reports the
per-layer metrics of ``perfbench/spans.py`` plus the tracing overhead.
Human-readable lines come first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  perfbench/README.md
maps the metrics to the layers and workloads.
"""

from __future__ import annotations

import os

# one thread for every numeric library, set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from spans import PER_LAYER, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
INPUTS = HERE / "inputs"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
WARMUP_M = 512

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "peak_rss_mb": "MB",
}


def import_bdsde():
    """The bdsde package under ROOT/src, or exit non-zero if it is absent."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import bdsde
        import bdsde.cli  # noqa: F401  (not imported by the package itself)
    except ImportError as err:
        sys.exit(f"perfbench: cannot import bdsde from {src}: {err}")
    if Path(bdsde.__file__).resolve().parent != (src / "bdsde").resolve():
        sys.exit(f"perfbench: bdsde was imported from {bdsde.__file__}, not {src}")
    return bdsde


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


# -------------------------------- workloads -------------------------------- #

class SolveRef:
    """sample_noise + solve with the reference config; Y0/Z0 finite and the
    Picard residuals of every step strictly decreasing."""

    def __init__(self, bdsde, workdir: Path, M=None):
        cfg = bdsde.load_config(str(INPUTS / "solve_ref.json"))
        self.cfg = cfg if M is None else dataclasses.replace(cfg, M=M)
        self.bdsde = bdsde
        self.problem = bdsde.build_problem(self.cfg)

    def run(self, seed):
        coeffs, grid, domain, partition, scfg = self.problem
        noise = self.bdsde.sample_noise(seed, self.cfg.M, grid, coeffs.d, coeffs.l)
        return self.bdsde.solve(coeffs, grid, domain, noise, [self.cfg.x0] * coeffs.d,
                                partition, scfg, shift_enabled=self.cfg.shift_enabled)

    @staticmethod
    def check(sol):
        if not (np.isfinite(sol.Y0).all() and np.isfinite(sol.Z0).all()):
            return f"Y0={sol.Y0} Z0={sol.Z0} not finite"
        res = sol.diagnostics.picard_residuals
        if not np.all(res[:, 1:] < res[:, :-1]):
            return "Picard residuals do not contract at every step"
        return None

    @staticmethod
    def digest(sol):
        return sha256(sol.Y0.tobytes())


def exit_time_problem(bdsde, params, N):
    """The reference GBM, no driver and no payoff, on the narrow box."""
    mu, sc = params["mu"], params["sigma_coef"]
    coeffs = bdsde.CoefficientSet(
        d=1, k=1, l=1,
        b=lambda x: mu * x,
        sigma=lambda x: sc * x[..., None],
        f=lambda t, x, y, z: np.zeros_like(y),
        phi=lambda t, x: np.zeros(x.shape[:-1] + (1,)),
    )
    grid = bdsde.build_grid(params["T"], N)
    domain = bdsde.Domain.box([params["domain_lower"]], [params["domain_upper"]])
    return coeffs, grid, domain


class ExitTime:
    """sample_noise + simulate_stopped with the boundary shift on; the mean
    exit time lies within 4 standard errors of the stored fine-grid mean."""

    def __init__(self, bdsde, workdir: Path, M=None):
        self.params = json.loads((INPUTS / "exit_time.json").read_text())
        self.M = self.params["M"] if M is None else M
        self.bdsde = bdsde
        self.coeffs, self.grid, self.domain = exit_time_problem(
            bdsde, self.params, self.params["N"])

    def run(self, seed):
        noise = self.bdsde.sample_noise(seed, self.M, self.grid, 1, 1)
        return self.bdsde.simulate_stopped(self.coeffs, self.grid, self.domain, noise,
                                           [self.params["x0"]],
                                           shift_enabled=self.params["shift_enabled"])

    def check(self, paths):
        t = paths.exit_time
        mean = float(t.mean())
        se = float(t.std(ddof=1)) / math.sqrt(t.size)
        ref = self.params["reference"]
        gap = abs(mean - ref["mean_exit_time"])
        tol = 4.0 * math.hypot(se, ref["std_error"])
        if not gap <= tol:
            return f"mean exit time {mean:.6f} is {gap:.2e} from the reference (> {tol:.2e})"
        return None

    @staticmethod
    def digest(paths):
        return sha256(paths.exit_index.tobytes())


class SpdeField:
    """In-process ``bdsde spde-grid`` writing CSV; (N+1)*P rows of finite
    values and every t=T row exactly the payoff K - x with v = 0."""

    def __init__(self, bdsde, workdir: Path, M=None):
        raw = json.loads((INPUTS / "spde_field.json").read_text())
        if M is not None:
            raw.update(M=M, spatial_points=2)
        self.raw = raw
        self.bdsde = bdsde
        self.config = workdir / "spde_field.json"
        self.config.write_text(json.dumps(raw))
        self.csv = workdir / "field.csv"

    def run(self, seed):
        code = self.bdsde.cli.main(["spde-grid", "--config", str(self.config),
                                    "--seed", str(seed), "--out", str(self.csv)])
        if code != 0:
            raise RuntimeError(f"spde-grid exited with code {code}")
        return self.csv.read_bytes()

    def check(self, data):
        raw = self.raw
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
        P, N = raw["spatial_points"], raw["N"]
        if rows[0] != ["t", "x", "u", "v"] or len(rows) != (N + 1) * P + 1:
            return f"CSV has header {rows[0]} and {len(rows)} rows"
        if not np.isfinite(np.array(rows[1:], dtype=np.float64)).all():
            return "CSV holds a non-finite value"
        lo, hi, K, T = raw["domain_lower"], raw["domain_upper"], raw["K"], raw["T"]
        for p, row in enumerate(rows[-P:]):
            x = lo + (p + 0.5) * (hi - lo) / P        # midpoint lattice node p
            want = [f"{T:.10g}", f"{x:.10g}", f"{K - x:.10g}", "0"]
            if row != want:
                return f"t=T row {row} is not the payoff row {want}"
        return None

    @staticmethod
    def digest(data):
        return sha256(data)


WORKLOADS = {"solve-ref": SolveRef, "exit-time": ExitTime, "spde-field": SpdeField}


# -------------------------------- measuring -------------------------------- #

@dataclasses.dataclass
class Ops:
    plain: list          # latencies of untraced ops, s
    traced: list         # (op id, latency) of traced ops
    failed: int
    wall_s: float        # from the first op's start to the last op's end
    digest: str          # of op 0's output

    @property
    def attempted(self):
        return len(self.plain) + len(self.traced)


def run_ops(workload, seed, seconds, tracer=None):
    """Run ops back to back until ``seconds`` have passed, and at least one
    op of each kind ran.  With a tracer, odd ops are traced."""
    ops = Ops(plain=[], traced=[], failed=0, wall_s=0.0, digest="none")
    start = time.perf_counter()
    r = 0
    while (time.perf_counter() - start < seconds or not ops.plain
           or (tracer is not None and not ops.traced)):
        traced = tracer is not None and r % 2 == 1
        scope = tracer.installed(r) if traced else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with scope:
                out = workload.run(seed + r)
            latency = time.perf_counter() - t0
            problem = workload.check(out)
            if r == 0:
                ops.digest = workload.digest(out)
            del out
        except Exception:  # a raising op is a failed op; keep measuring
            latency = time.perf_counter() - t0
            problem = traceback.format_exc()
        if problem is not None:
            ops.failed += 1
            print(f"op {r} (seed {seed + r}) failed: {problem}", file=sys.stderr)
        if traced:
            ops.traced.append((r, latency))
        else:
            ops.plain.append(latency)
        r += 1
    ops.wall_s = time.perf_counter() - start
    return ops


def setup_seconds(args):
    """Median wall time of fresh interpreters that import bdsde, build the
    workload and run one small warm-up op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def warm_up(workload_cls, bdsde, workdir, seed):
    small = workload_cls(bdsde, workdir, M=WARMUP_M)
    problem = small.check(small.run(seed))
    if problem is not None:
        raise SystemExit(f"perfbench: warm-up op failed its check: {problem}")


def report(correct, attempted, failed, metrics, units):
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    bdsde = import_bdsde()
    workload_cls = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        warm_up(workload_cls, bdsde, workdir, args.seed)
        if args.setup_probe:
            workload_cls(bdsde, workdir)
            return 0
        setup_s = None if args.trace else setup_seconds(args)
        workload = workload_cls(bdsde, workdir)
        if args.trace:
            tracer = Tracer(bdsde)
            ops = run_ops(workload, args.seed, args.seconds, tracer)
            overhead = (statistics.median(t for _, t in ops.traced)
                        - statistics.median(ops.plain))
            metrics = tracer.summary([op for op, _ in ops.traced], overhead)
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
            units = PER_LAYER
        else:
            ops = run_ops(workload, args.seed, args.seconds)
            metrics = {
                "setup_s": setup_s,
                "ops_per_s": ops.attempted / ops.wall_s,
                "op_s.p50": statistics.median(ops.plain),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END

    print(f"workload = {args.workload}, seed = {args.seed}, trace = {args.trace}")
    print(f"ops attempted = {ops.attempted}, failed = {ops.failed}, "
          f"failed_frac = {ops.failed / ops.attempted:.6g}")
    print(f"digest of op 0 (seed {args.seed}) = {ops.digest}")
    report(ops.failed == 0, ops.attempted, ops.failed, metrics, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
