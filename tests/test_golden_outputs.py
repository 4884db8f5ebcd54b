"""The bytes the command line emits, compared with files pinned in
``tests/golden/``.

A deliberate output change re-pins them with
``PYTHONPATH=src python tests/test_golden_outputs.py`` and says why in
CHANGES.md.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

from bdsde import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
REFERENCE = GOLDEN.parents[1] / "configs" / "reference.json"
SMALL = GOLDEN / "small.json"  # reference.json on the box (90, 110), N=6, M=2048
NAMES = ("run_reference.txt", "run_reference_diagnostics.csv",
         "table_reference.csv", "converge_small.csv", "spde_grid_small.csv")


def stdout_of(*argv) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main([str(a) for a in argv]) == 0
    return buf.getvalue().encode()


def emitted(tmp: Path) -> dict:
    """Golden file name -> the bytes the current code emits for it."""
    diagnostics = tmp / "run_diagnostics.csv"
    run = stdout_of("run", "--config", REFERENCE, "--reps", 3, "--threads", 2,
                    "--out", diagnostics)
    return {
        # the path line names a temporary file
        "run_reference.txt": b"".join(
            line for line in run.splitlines(keepends=True)
            if not line.startswith(b"diagnostics written to ")),
        "run_reference_diagnostics.csv": diagnostics.read_bytes(),
        "table_reference.csv": stdout_of("table", "--config", REFERENCE,
                                         "--reps", 2, "--threads", 2),
        "converge_small.csv": stdout_of("converge", "--config", SMALL,
                                        "--reps", 2),
        "spde_grid_small.csv": stdout_of("spde-grid", "--config", SMALL,
                                         "--reps", 2),
    }


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return emitted(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", NAMES)
def test_emitted_bytes_match_the_pinned_file(outputs, name):
    assert outputs[name] == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in emitted(Path(tmp)).items():
            (GOLDEN / name).write_bytes(data)
