"""The reference runs: CLI commands whose stdout and exit code are recorded.

    PYTHONPATH=src python tests/reference_runs.py [--write]

``RUNS`` names each command. ``tests/reference/<name>.out`` holds its
recorded transcript: the command line, its stdout and its exit code.
``tests/reference/fingerprint.txt`` holds the environment they were
recorded in, NumPy's version and the OpenBLAS config string, since the
last bits of a BLAS product can differ between builds and CPU kernels.
``test_reference_runs`` runs every command in-process through
``cli.main`` and compares it with its transcript.

Without ``--write`` the script prints each command's name, exit code and
whether its stdout matches the transcript, and exits 1 if any does not.
With ``--write`` it records every transcript and the fingerprint anew: a
change that moves a reported digit regenerates them, and the diff of
``tests/reference`` is its record.
Each run takes place in a temporary directory, since ``regularizer --out``
writes a file.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import os
import pathlib
import shlex
import sys
import tempfile

import numpy as np

from proxframe import cli

REFERENCE = pathlib.Path(__file__).with_name("reference")

RUNS = {
    # the nine-run verify set; verify_example35 is also the README's
    "verify_12x5_3": "verify --operator random:12x5:3 --trials 100 --seed 1",
    "verify_200x100_2": "verify --operator random:200x100:2 --prox soft:1 --trials 100 --seed 1",
    "verify_example35": "verify --operator example35 --prox soft:1 --trials 200 --seed 7",
    "verify_12x5_7_soft10": "verify --operator random:12x5:7 --prox soft:10 --trials 100 --seed 3",
    "verify_12x5_7_soft05": "verify --operator random:12x5:7 --prox soft:0.5 --trials 100 --seed 3",
    "verify_30x12_2_identity": "verify --operator random:30x12:2 --prox identity --trials 50",
    "verify_400x250_1": "verify --operator random:400x250:1 --prox soft:1 --trials 200 --seed 3",
    "verify_60x30_1_identity": "verify --operator random:60x30:1 --prox identity --trials 40 --seed 5",
    "verify_100x60_3_soft10": "verify --operator random:100x60:3 --prox soft:10 --trials 50 --seed 2",
    # the rest of the README's CLI block
    "regularizer_example35": "regularizer --operator example35 --prox soft:1 --grid -2:2:0.01 --out f.csv",
    "solve_example35": "solve --operator example35 --x 1 --lambda 1",
    "example": "example",
    # columns stay open past FISTA's first 2048 iterations, so ADMM joins f's dual solve
    "regularizer_20x10_1_dead_zone": "regularizer --operator random:20x10:1 --prox soft:10 "
                                     "--grid -1e-4:1e-4:1e-5 --seed 1",
    # soft shrinkage's dual at 200x100, and exact zeros for the identity
    "regularizer_200x100_2_soft10": "regularizer --operator random:200x100:2 --prox soft:10 --grid -2:2:0.5",
    "regularizer_30x12_2_identity_json": "regularizer --operator random:30x12:2 --prox identity "
                                         "--grid -1:1:0.5 --format json",
    # f's dual leaves the float64 range after the ADMM join: exit 2, no RuntimeWarning
    "regularizer_200x100_2_soft1e200": "regularizer --operator random:200x100:2 --prox soft:1e200 "
                                       "--grid -2:2:0.01",
    # the power-of-two scaling keeps the gap from overflowing or underflowing;
    # at --tol 0 the solve stops unconverged (exit 1)
    "solve_6x3_1_1e160": "solve --operator random:6x3:1 --x 1e160,1,-3e159 --lambda 3e159 --tol 1e305",
    "solve_6x3_1_1e300": "solve --operator random:6x3:1 --x 1.25,0.5,-0.25 --lambda 1e300",
    "solve_6x3_1_1e-170_tol0": "solve --operator random:6x3:1 --x 1.25e-170,5e-171,-2.5e-171 "
                               "--lambda 3.75e-171 --tol 0",
    # the minimizer 0 certifies at 3e-15 (ones), and a later iterate after a
    # large first gap (twos)
    "solve_40x20_1_ones": "solve --operator random:40x20:1 --x " + ",".join(["1"] * 20) + " --tol 3e-15",
    "solve_40x20_1_twos": "solve --operator random:40x20:1 --x " + ",".join(["2"] * 20)
                          + " --lambda 0.2 --tol 3e-15",
    # a tolerance below the oracle's rounding term fails (exit 1)
    "verify_200x100_2_tol1e-30": "verify --operator random:200x100:2 --prox soft:1 --trials 100 --seed 1 "
                                 "--tol 1e-30",
    # three trial blocks, the last one partial
    "verify_12x5_3_3000": "verify --operator random:12x5:3 --trials 3000 --seed 5",
}

# OpenBLAS's config string, by the names its builds export
_CONFIG_SYMBOLS = ("scipy_openblas_get_config64_", "openblas_get_config64_", "openblas_get_config")


def fingerprint() -> str:
    """NumPy's version and its OpenBLAS config string, one per line.

    The string is looked up on ``cli._numpy_core()``, where
    ``cli._blas_threads`` looks up the thread setter; "no OpenBLAS config"
    where none of ``_CONFIG_SYMBOLS`` is found.
    """
    handle = cli._numpy_core()
    config = "no OpenBLAS config"
    for name in _CONFIG_SYMBOLS:
        getter = getattr(handle, name, None)
        if getter:
            getter.argtypes, getter.restype = [], ctypes.c_char_p
            config = getter().decode()
            break
    return f"numpy {np.__version__}\n{config}\n"


def transcript(command: str, stdout: str, code: int) -> str:
    """A run's transcript: its command line, its stdout, then its exit code."""
    return f"$ proxframe {command}\n{stdout}exit {code}\n"


def run(command: str) -> tuple[str, int]:
    """``cli.main`` on ``command`` in the current directory: (stdout, exit code)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(shlex.split(command))
    return out.getvalue(), code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="record every transcript and the fingerprint anew")
    args = parser.parse_args()
    if args.write:
        REFERENCE.mkdir(exist_ok=True)
        (REFERENCE / "fingerprint.txt").write_text(fingerprint())
    home = os.getcwd()
    differ = False
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, command in RUNS.items():
                stdout, code = run(command)
                path = REFERENCE / f"{name}.out"
                if args.write:
                    path.write_text(transcript(command, stdout, code))
                    print(f"{name}: exit {code}, written")
                else:
                    same = path.exists() and path.read_text() == transcript(command, stdout, code)
                    differ = differ or not same
                    print(f"{name}: exit {code}, {'matches' if same else 'differs from'} {path.name}")
        finally:
            os.chdir(home)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
