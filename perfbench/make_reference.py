"""Recompute the exit-time reference stored in perfbench/inputs/exit_time.json.

    python3 perfbench/make_reference.py

The reference is the mean first exit time of the workload's diffusion on a
grid four times finer (criterion 7's N=2560 setting: 8 chunks of 12800 paths
seeded 910000+c) and its standard error.  It takes about a minute and
several hundred MB; the benchmark only reads the stored numbers.
"""

import json
import math

import numpy as np

from run import INPUTS, exit_time_problem, import_bdsde


def main():
    bdsde = import_bdsde()
    path = INPUTS / "exit_time.json"
    params = json.loads(path.read_text())
    ref = params["reference"]
    coeffs, grid, domain = exit_time_problem(bdsde, params, ref["N"])
    times = []
    for c in range(ref["chunks"]):
        noise = bdsde.sample_noise(ref["seed"] + c, ref["chunk"], grid, 1, 1)
        paths = bdsde.simulate_stopped(coeffs, grid, domain, noise, [params["x0"]],
                                       shift_enabled=ref["shift_enabled"])
        times.append(paths.exit_time)
    t = np.concatenate(times)
    ref["mean_exit_time"] = float(t.mean())
    ref["std_error"] = float(t.std(ddof=1)) / math.sqrt(t.size)
    path.write_text(json.dumps(params, indent=2) + "\n")
    print(f"mean exit time {ref['mean_exit_time']:.8f} +- {ref['std_error']:.2e}")


if __name__ == "__main__":
    main()
