"""Command-line front end: single runs, tables, sweeps, and field export."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import pickle
import signal
import sys
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .experiments import (
    ExperimentConfig,
    _run_set,
    _solve_seed,
    build_problem,
    derived_seeds,
    dump_diagnostics,
    emit_csv,
    load_config,
    run_convergence,
    run_table,
)
from .model import BdsdeError, ConfigError, sample_noise
from .oracles import midpoint_lattice, spde_point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdsde",
        description="Monte Carlo solver for backward doubly stochastic "
        "systems with first-exit terminal times",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, reps_help: str) -> None:
        p.add_argument("--config", required=True, help="flat JSON experiment file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--reps", type=int, default=None, help=reps_help)
        p.add_argument("--out", default=None,
                       help="output path (default: config 'out', else stdout)")

    p_run = sub.add_parser("run", help="single solve, print Y0/Z0 and diagnostics")
    common(p_run, "if given, also report mean/std over this many repetitions")
    p_table = sub.add_parser("table", help="mode x path-count x time summary table")
    common(p_table, "repetitions per table cell (default: config R_runs)")
    p_conv = sub.add_parser("converge", help="joint N/M/delta refinement sweep")
    common(p_conv, "repetitions per sweep row (default: config R_runs)")
    p_grid = sub.add_parser("spde-grid",
                            help="export u and v on the time grid x midpoint lattice")
    common(p_grid, "average the field over this many noise realizations")
    for p in (p_run, p_table, p_conv):
        p.add_argument("--threads", type=int, default=1,
                       help="repetition worker threads; affects speed only, "
                       "never results")
    return parser


# ------------------------------- subcommands ------------------------------- #

def _cmd_run(config: ExperimentConfig, out: Optional[str], args) -> int:
    problem = build_problem(config)
    sol = _solve_seed(config, problem, config.seed)
    if args.reps is not None:
        stats = _run_set(config, args.threads, problem, (0,), first=sol)[0]
    diag = sol.diagnostics
    print(f"mode = {config.mode}, g_choice = {config.g_choice}, "
          f"N = {config.N}, M = {config.M}, delta = {config.delta:g}, "
          f"I = {config.I}, seed = {config.seed}")
    print("Y0 = " + " ".join(f"{v:.10g}" for v in sol.Y0))
    print("Z0 = " + " ".join(f"{v:.10g}" for v in sol.Z0.ravel()))
    print(f"exit_fraction = {diag.exit_fraction:.10g}")
    # y's totals include the terminal fit, z's stop at step N-1
    print(f"empty_cells_y = {int(diag.empty_cells.sum())}, "
          f"empty_cells_z = {int(diag.empty_cells[:-1].sum())}")
    print(f"out_of_range_y = {int(diag.out_of_range.sum())}, "
          f"out_of_range_z = {int(diag.out_of_range[:-1].sum())}")
    if diag.picard_residuals.size:
        print("max_picard_residual_by_sweep = " + " ".join(
            f"{v:.3g}" for v in diag.picard_residuals.max(axis=0)))
    if args.reps is not None:
        print(f"repetitions = {config.R_runs}: mean = {stats.mean:.10g}, "
              f"std = {stats.std:.10g}")
    if out is not None:
        dump_diagnostics(sol, out)
        print(f"diagnostics written to {out}")
    return 0


def _cmd_rows(make_rows, config: ExperimentConfig, out: Optional[str],
              args) -> int:
    emit_csv(make_rows(config, threads=args.threads), out)
    return 0


def _cmd_spde_grid(config: ExperimentConfig, out: Optional[str], args) -> int:
    coeffs, grid, domain, partition, scfg = build_problem(config)
    points = midpoint_lattice(domain, config.spatial_points)
    reps = 1 if args.reps is None else args.reps
    seeds = derived_seeds(config, reps)
    P = points.shape[0]
    acc_u = np.zeros((grid.N + 1, P))
    acc_v = np.zeros((grid.N + 1, P))

    def sum_rows(share: range) -> None:
        # each row's sum over the seeds is formed in seed order in one process
        for seed in seeds:
            wpath = sample_noise(seed, 1, grid, coeffs.d, coeffs.l).backward
            for n in share:
                u, v = spde_point(coeffs, grid, domain, wpath,
                                  float(grid.times[n]), points, config.M,
                                  partition, scfg, seed=seed,
                                  shift_enabled=config.shift_enabled)
                acc_u[n] += u[:, 0]
                acc_v[n] += v[:, 0, 0]

    _on_row_shares(sum_rows, grid.N + 1, acc_u, acc_v)
    rows: List[Tuple] = [("t", "x", "u", "v")]
    for n in range(grid.N + 1):
        for p in range(P):
            rows.append((float(grid.times[n]), float(points[p, 0]),
                         acc_u[n, p] / reps, acc_v[n, p] / reps))
    emit_csv(rows, out)
    return 0


def _on_row_shares(sum_rows, rows: int, *accs: np.ndarray) -> None:
    """sum_rows(share) over the interleaved shares range(j, rows, w) of the
    rows, w = min(CPUs, rows): share 0 in this process, every other share in
    a forked child that pipes its rows of ``accs`` back.  The parent's own
    exception comes first, then the children's in share order; every child
    is reaped before this returns or raises."""
    w = min(os.cpu_count() or 1, rows)
    shares = [range(j, rows, w) for j in range(w)]
    sys.stdout.flush()
    sys.stderr.flush()
    children: List[Tuple[int, int]] = []
    try:
        for share in shares[1:]:
            children.append(_fork_share(sum_rows, share, accs))
        sum_rows(shares[0])
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)    # their rows are not needed
        raise
    finally:
        sent = [_reap(pid, fd) for pid, fd in children]
    for share, data in zip(shares[1:], sent):
        if not data:
            raise BdsdeError(f"the worker of field rows {list(share)} "
                             "ended without a result")
        err, *parts = pickle.loads(data)
        if err is not None:
            raise err
        for acc, part in zip(accs, parts):
            acc[share] = part


def _fork_share(sum_rows, share: range, accs) -> Tuple[int, int]:
    """(pid, read end of its pipe) of a child that runs sum_rows(share),
    pickles (None, *its rows of accs) or (exception,) into the pipe and
    exits 0."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, read_fd
    code = 1                                # the child never returns
    try:
        os.close(read_fd)
        try:
            sum_rows(share)
            result: tuple = (None, *(acc[share] for acc in accs))
        except BaseException as err:        # raised again in the parent
            result = (err,)
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(result, pipe)
        code = 0
    finally:
        os._exit(code)


def _reap(pid: int, fd: int) -> bytes:
    """All that child pid wrote to pipe fd, or b"" unless it exited 0."""
    with os.fdopen(fd, "rb") as pipe:
        data = pipe.read()
    return data if os.waitpid(pid, 0)[1] == 0 else b""


_DISPATCH = {
    "run": _cmd_run,
    "table": functools.partial(_cmd_rows, run_table),
    "converge": functools.partial(_cmd_rows, run_convergence),
    "spde-grid": _cmd_spde_grid,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "threads", 1) < 1:
        parser.error(f"--threads must be positive, got {args.threads}")
    if args.command == "spde-grid" and args.reps is not None and args.reps < 1:
        parser.error(f"--reps must be at least 1 for spde-grid, got {args.reps}")
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
        if args.reps is not None and args.command != "spde-grid":
            # spde-grid's --reps counts noise realizations, not R_runs
            config = dataclasses.replace(config, R_runs=args.reps)
        out = args.out if args.out is not None else config.out
        code = _DISPATCH[args.command](config, out, args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout was closed early (say, by head); devnull takes the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except BdsdeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
