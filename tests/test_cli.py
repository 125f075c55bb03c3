import csv
import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from proxframe import (
    FrameShrinkage,
    ProxMap,
    build_operator,
    verify_firm_nonexpansive,
    verify_t_firm_nonexpansive,
)
import proxframe
from proxframe import cli as cli_module
from proxframe import shrinkage as shrinkage_module
from proxframe.cli import build_parser, main
from support import save_matrix_csv, save_matrix_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_flagship_passes(capsys):
    code, out, _ = run(capsys, "verify", "--operator", "example35", "--prox", "soft:1",
                       "--trials", "40", "--seed", "1")
    assert code == 0
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert all(r["pass"] for r in reports)
    names = [r["property"] for r in reports]
    assert "prox_identity" in names and "operator_identities" in names
    prox_identity = next(r for r in reports if r["property"] == "prox_identity")
    assert prox_identity["max_violation"] <= 1e-6


def test_verify_identity_operator(capsys):
    code, out, _ = run(capsys, "verify", "--operator", "identity:3", "--prox", "soft:1",
                       "--trials", "20")
    assert code == 0


def test_verify_identity_inner_prox(capsys):
    # zero inner function: the induced regularizer vanishes and the
    # composition reduces to the identity, but every check must still run
    code, out, _ = run(capsys, "verify", "--operator", "example35", "--prox", "identity",
                       "--trials", "20", "--seed", "2")
    assert code == 0
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert {r["property"] for r in reports} >= {"prox_identity", "weaker_regularizer"}


def test_verify_rank_deficient_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "rankdef.csv"
    path.write_text("1,2\n2,4\n")
    code, _, err = run(capsys, "verify", "--operator", str(path), "--prox", "soft:1")
    assert code == 2
    assert "injective" in err or "rank" in err


# JSON inputs that a float() conversion would accept: "1" and true are not numbers
JSON_INPUTS = {
    "data_string_bool.json": '{"rows": 2, "cols": 1, "data": ["1", true]}',
    "data_bool.json": '{"rows": 2, "cols": 1, "data": [1, true]}',
    "x_string.json": '{"x": ["1"], "lambda": 1}',
    "x_bool.json": '{"x": [true]}',
    "lambda_string.json": '{"x": [1], "lambda": "1"}',
    "lambda_bool.json": '{"x": [1], "lambda": true}',
    "not_an_object.json": '[1]',
    # a JSON integer of 400 digits parses exactly but has no float value
    "data_big.json": '{"rows": 2, "cols": 1, "data": [1, %s]}' % ("9" * 400),
    "x_big.json": '{"x": [1, %s]}' % ("9" * 400),
    "lambda_big.json": '{"x": [1, 2], "lambda": %s}' % ("9" * 400),
    "x_string_only.json": '{"x": ["1"]}',
    "x_not_a_list.json": '{"x": 1}',
    "lambda_null.json": '{"x": [1], "lambda": null}',
}

# CSV matrices that float() refuses: a trailing comma, and a word
CSV_INPUTS = {
    "trailing_comma.csv": "1,2,\n3,4\n",
    "word.csv": "1,2\n\n3,x\n",
}


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--operator", "nonsense"),
        ("verify", "--operator", "random:axb:3"),
        ("verify", "--prox", "mystery:1"),
        ("regularizer", "--grid", "banana"),
        ("solve",),  # neither --x nor --problem
        ("solve", "--x", "1,2"),  # wrong length for example35
        ("regularizer", "--grid", "-1e308:1e308:1e308"),  # the point count overflows
        ("regularizer", "--grid", "0:inf:1"),
        # seeds must fit the 64-bit Philox key, including the per-check offsets
        ("verify", "--operator", "random:6x3:1", "--trials", "5", "--seed", "-1"),
        ("verify", "--operator", "random:6x3:-1", "--trials", "5"),
        ("verify", "--operator", "random:6x3:1", "--trials", "5", "--seed", "18446744073709551613"),
        ("regularizer", "--operator", "random:3x2:1", "--seed", "-4"),
        # lambda must be finite
        ("verify", "--operator", "random:6x3:1", "--prox", "soft:inf", "--trials", "5"),
        ("solve", "--operator", "example35", "--x", "1", "--lambda", "inf"),
        # a 728 TiB operator cannot be allocated under any overcommit setting
        ("verify", "--operator", "random:10000000x10000000:1", "--trials", "1"),
        # a tolerance must be finite and >= 0; each is refused before any solve
        ("verify", "--operator", "random:12x5:3", "--trials", "20", "--seed", "1", "--tol", "nan"),
        ("verify", "--operator", "random:12x5:3", "--trials", "20", "--seed", "1", "--tol", "inf"),
        ("verify", "--operator", "random:12x5:3", "--trials", "20", "--seed", "1", "--tol", "-1"),
        ("solve", "--operator", "random:40x20:1", "--x", ",".join(["1"] * 20), "--tol", "inf"),
        ("regularizer", "--tol", "inf"),
        ("regularizer", "--tol", "-1"),
        # JSON inputs hold numbers only, in an object (files from JSON_INPUTS)
        ("verify", "--operator", "data_string_bool.json", "--trials", "5"),
        ("verify", "--operator", "data_bool.json", "--trials", "5"),
        ("solve", "--problem", "x_string.json"),
        ("solve", "--problem", "x_bool.json"),
        ("solve", "--problem", "lambda_string.json"),
        ("solve", "--problem", "lambda_bool.json"),
        ("solve", "--problem", "not_an_object.json"),
        # each subcommand takes only the options it reads
        ("example", "--operator", "random:6x3:1"),
        ("example", "--prox", "soft:2"),
        ("example", "--tol", "1e-9"),
        ("example", "--trials", "5"),
        ("example", "--seed", "1"),
        ("example", "--format", "csv"),
        ("solve", "--x", "1", "--trials", "5"),
        ("solve", "--x", "1", "--seed", "1"),
        ("solve", "--x", "1", "--format", "csv"),
        ("regularizer", "--trials", "5"),
        # lambda must be finite and positive for every catalog map, the identity included
        ("verify", "--operator", "random:12x5:3", "--prox", "identity:nan", "--trials", "5"),
        ("verify", "--operator", "random:12x5:3", "--prox", "identity:inf", "--trials", "5"),
        ("verify", "--operator", "random:12x5:3", "--prox", "identity:0", "--trials", "5"),
        ("verify", "--operator", "random:12x5:3", "--prox", "identity:-5", "--trials", "5"),
        ("regularizer", "--operator", "random:12x5:3", "--prox", "identity:nan"),
        # a colon with no LAMBDA after it; "soft" alone means lambda = 1
        ("verify", "--operator", "random:12x5:3", "--prox", "soft:", "--trials", "3"),
        # the identity takes no LAMBDA, not even 1
        ("verify", "--operator", "random:12x5:3", "--prox", "identity:1", "--trials", "5"),
        # solve has no --prox: its contrast line shrinks at --lambda
        ("solve", "--x", "1", "--prox", "soft:1"),
        # a JSON integer beyond the float range (files from JSON_INPUTS)
        ("verify", "--operator", "data_big.json", "--trials", "5"),
        ("solve", "--operator", "identity:2", "--problem", "x_big.json"),
        ("solve", "--operator", "identity:2", "--problem", "lambda_big.json"),
        # a malformed problem file is named in the error, as a matrix file is
        ("solve", "--operator", "identity:1", "--problem", "x_string_only.json"),
        ("solve", "--operator", "identity:1", "--problem", "x_not_a_list.json"),
        ("solve", "--operator", "identity:1", "--problem", "lambda_null.json"),
        # verify draws on seed .. seed + 5, so its --seed stops at 2**64 - 6
        ("verify", "--operator", "example35", "--trials", "3", "--seed", str(2**64 - 5)),
        ("verify", "--operator", "example35", "--trials", "3", "--seed", str(2**64 - 1)),
        # regularizer checks --seed before any work, so the error names it
        ("regularizer", "--operator", "example35", "--seed", "-4", "--grid", "0:1:1"),
        ("regularizer", "--operator", "example35", "--seed", str(2**64), "--grid", "0:1:1"),
        # a bad size, shape or seed in an inline operator is quoted in the error
        ("verify", "--operator", "random:3x2:-4", "--trials", "3"),
        ("verify", "--operator", "identity:x", "--trials", "3"),
        ("verify", "--operator", "random:-3x2:1", "--trials", "3"),
        # a 71 PiB identity, refused at once like the 728 TiB random spec
        ("verify", "--operator", "identity:100000000", "--trials", "1"),
        ("verify", "--operator", "identity:0", "--trials", "3"),
        # a malformed CSV matrix is named with its line, a malformed --x by its flag
        ("verify", "--operator", "trailing_comma.csv", "--trials", "3"),
        ("solve", "--operator", "word.csv", "--x", "1,2"),
        ("solve", "--operator", "example35", "--x", "1,a"),
        ("solve", "--operator", "example35", "--x", "1,"),
    ],
)
def test_usage_errors_exit_2(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    for name, doc in {**JSON_INPUTS, **CSV_INPUTS}.items():
        (tmp_path / name).write_text(doc)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.strip()
    if "--problem" in argv:
        assert argv[argv.index("--problem") + 1] in err, err
    if "--seed" in argv:
        seed = int(argv[argv.index("--seed") + 1])
        if not 0 <= seed <= (2**64 - 6 if argv[0] == "verify" else 2**64 - 1):
            assert "--seed" in err, err
    spec = argv[argv.index("--operator") + 1] if "--operator" in argv else ""
    if spec in ("random:axb:3", "random:6x3:-1", "random:3x2:-4", "identity:x", "random:-3x2:1",
                "random:10000000x10000000:1", "identity:100000000", "identity:0"):
        assert repr(spec) in err, err
    if spec in CSV_INPUTS:
        assert f"{spec}, line " in err, err
    if "--x" in argv and argv[argv.index("--x") + 1] in ("1,a", "1,"):
        assert "--x" in err, err


def test_verify_takes_the_largest_seed(capsys):
    # seed + 5 = 2**64 - 1 is the last 64-bit key
    code, out, err = run(capsys, "verify", "--operator", "example35", "--trials", "3",
                         "--seed", str(2**64 - 6))
    assert code == 0, err
    assert len(out.strip().splitlines()) == 6


def test_verify_failure_exits_1(capsys):
    # an impossible tolerance turns float noise into a reported failure
    code, out, _ = run(capsys, "verify", "--operator", "random:6x3:1", "--prox", "soft:1",
                       "--trials", "10", "--tol", "1e-30")
    assert code == 1
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert any(not r["pass"] for r in reports)


def test_verify_tol_zero_is_used_as_given(capsys):
    code, out, _ = run(capsys, "verify", "--operator", "example35", "--prox", "soft:1",
                       "--trials", "3", "--tol", "0")
    assert code == 1
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert len(reports) == 6
    assert all(r["tolerance"] == 0.0 for r in reports)
    # the numeric prox cannot converge at tolerance 0, so nothing was measured
    prox_identity = next(r for r in reports if r["property"] == "prox_identity")
    assert prox_identity["pass"] is False


def test_verify_reports_each_checks_own_default_tolerance(capsys):
    # without --tol the CLI passes no tol, so each line carries the default
    # that its check's signature states
    code, out, _ = run(capsys, "verify", "--operator", "example35", "--trials", "3")
    assert code == 0
    checks = (proxframe.verify_operator_identities, proxframe.verify_firm_nonexpansive,
              proxframe.verify_moreau_characterization, proxframe.verify_t_firm_nonexpansive,
              proxframe.verify_prox_identity, proxframe.weaker_regularizer_check)
    defaults = [inspect.signature(check).parameters["tol"].default for check in checks]
    assert [json.loads(line)["tolerance"] for line in out.splitlines()] == defaults
    assert defaults == [1e-10, 1e-12, 1e-6, 1e-12, 1e-6, 1e-9]


def test_nonfinite_data_is_usage_error(tmp_path, capsys):
    # a NaN or inf in x or in the matrix is refused before the solve
    for value in ("nan", "inf"):
        path = tmp_path / f"{value}.csv"
        path.write_text(f"1,2\n{value},0.5\n3,1\n")
        for argv in (("--operator", "example35", "--x", value), ("--operator", str(path), "--x", "1,2")):
            code, out, err = run(capsys, "solve", *argv)
            assert code == 2
            assert "finite" in err and not out


def test_verify_large_lambda(capsys):
    # most samples land deep inside the dead zone of soft:10, where the
    # regularizer is evaluated at numeric-prox points of size ~1e-9
    code, out, err = run(capsys, "verify", "--operator", "random:6x3:4", "--prox", "soft:10",
                         "--trials", "40", "--seed", "3")
    assert code == 0, err
    assert all(json.loads(line)["pass"] for line in out.strip().splitlines())


def test_verify_soft10_certifies_before_the_admm_join(capsys, certified):
    # CI's console-script step runs this argv at 100 trials. The slowest
    # column of prox_identity's f(y1) runs 1048 iterations with momentum 1
    # between restarts; with momentum (m - 1) / (m + 2) it ran 2424, and
    # ADMM joined at _FISTA_ITERS
    code, _, err = run(capsys, "verify", "--operator", "random:12x5:7", "--prox", "soft:10",
                       "--trials", "20", "--seed", "3")
    assert code == 0, err
    assert max(np.max(iters, initial=0) for iters in certified) <= 1500


def test_regularizer_deep_in_the_dead_zone_reaches_the_admm_join(capsys, certified):
    # CI's console-script step runs this argv for its ADMM join: at |x| of
    # 1e-4 and below against lam = 10, FISTA leaves columns open past its
    # first _FISTA_ITERS iterations (the slowest runs 6768), so ADMM joins
    code, _, err = run(capsys, "regularizer", "--operator", "random:20x10:1", "--prox", "soft:10",
                       "--grid", "-1e-4:1e-4:1e-5", "--seed", "1")
    assert code == 0, err
    assert max(np.max(iters, initial=0) for iters in certified) > shrinkage_module._FISTA_ITERS


@pytest.mark.parametrize("spec", ["random:12x5:3", "random:100x60:3", "random:30x12:2"])
def test_verify_fails_prox_identity_on_a_scaled_composition(capsys, monkeypatch, spec):
    # frame_prox and the prox-identity check share _compose, so a y1 off by
    # a factor 1 + 1e-6 fails prox_identity (3.9e-4, 7.6e-3 and 1.2e-3
    # against 1e-6), and no other line; a scaled frame_prox passed every
    # line while the check formed T^+ Prox T on its own
    argv = ("verify", "--operator", spec, "--prox", "soft:1", "--trials", "100", "--seed", "1")
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    compose = shrinkage_module._compose

    def scaled(fs, x):
        tx, p, y1 = compose(fs, x)
        return tx, p, (1.0 + 1e-6) * y1

    monkeypatch.setattr(shrinkage_module, "_compose", scaled)
    code, out, _ = run(capsys, *argv)
    failed = [r["property"] for r in map(json.loads, out.strip().splitlines()) if not r["pass"]]
    assert code == 1 and failed == ["prox_identity"]


def test_verify_prox_identity_on_200x100(capsys):
    # the certified oracle is within a tenth of the tolerance of the closed
    # form here; an iterate-change stop rule once reported 1.42e-6 > 1e-6
    code, out, err = run(capsys, "verify", "--operator", "random:200x100:2", "--prox", "soft:1",
                         "--trials", "100", "--seed", "1")
    assert code == 0, err
    reports = [json.loads(line) for line in out.strip().splitlines()]
    prox_identity = next(r for r in reports if r["property"] == "prox_identity")
    assert prox_identity["max_violation"] <= 1e-7


def test_verify_runs_are_byte_identical(capsys):
    args = ("verify", "--operator", "random:5x3:9", "--prox", "soft:0.5",
            "--trials", "30", "--seed", "42")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_verify_of_two_blocks_is_byte_identical(capsys):
    # 1100 trials make two blocks of 1024 and 76 in the full-count checks
    args = ("verify", "--operator", "random:6x3:4", "--prox", "soft:1",
            "--trials", "1100", "--seed", "5")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    assert [json.loads(line)["trials"] for line in out1.splitlines()].count(1100) == 4


def test_verify_bytes_do_not_depend_on_the_blas_thread_count():
    # a product's summation order can depend on OpenBLAS's thread count, and
    # before main pinned one thread, prox_identity here read
    # 8.715005606063642e-08 at one thread and 8.714960131328553e-08 at two
    src = os.path.dirname(os.path.dirname(proxframe.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    argv = [sys.executable, "-m", "proxframe.cli", "verify", "--operator", "random:100x60:3",
            "--prox", "soft:10", "--trials", "20", "--seed", "2"]
    runs = [subprocess.run(argv, capture_output=True, timeout=120,
                           env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads})
            for threads in ("1", "2")]
    assert runs[0].stdout.count(b"\n") == 6, runs[0].stderr
    assert [(r.returncode, r.stdout) for r in runs[1:]] == [(runs[0].returncode, runs[0].stdout)]


def test_main_runs_on_one_blas_thread_and_restores_the_count(capsys, monkeypatch):
    # a setter must be found wherever an OpenBLAS is loaded, so that a failed
    # lookup on some NumPy build does not pass unnoticed
    try:
        with open("/proc/self/maps") as fh:
            openblas = any("openblas" in line.lower() for line in fh)
    except OSError:
        pytest.skip("no /proc/self/maps to tell whether OpenBLAS is loaded")
    if not openblas:
        pytest.skip("no OpenBLAS library in this process")
    blas = cli_module._blas_threads()
    assert blas is not None, "OpenBLAS is loaded, but no thread-count setter was found"
    getter, setter = blas
    seen, evaluate = [], cli_module.induced_regularizer
    monkeypatch.setattr(cli_module, "induced_regularizer",
                        lambda *args, **kwargs: seen.append(getter()) or evaluate(*args, **kwargs))
    before = getter()
    # OpenBLAS may cap the count at its thread pool's size
    setter(2)
    count = getter()
    try:
        code, _, _ = run(capsys, "regularizer", "--operator", "random:6x3:1", "--grid", "0:1:1")
        assert (code, seen, getter()) == (0, [1], count)
    finally:
        setter(before)


def test_main_runs_unpinned_where_no_blas_setter_is_found(capsys, monkeypatch):
    argv = ("verify", "--operator", "random:12x5:3", "--trials", "20", "--seed", "1")
    pinned = run(capsys, *argv)
    cli_module._blas_threads.cache_clear()
    monkeypatch.setattr(cli_module, "_BLAS_THREAD_SYMBOLS", ())
    try:
        assert cli_module._blas_threads() is None
        unpinned = run(capsys, *argv)
    finally:
        cli_module._blas_threads.cache_clear()
    assert unpinned[:2] == pinned[:2] and pinned[0] == 0


def test_nan_violation_in_last_block_fails():
    # a NaN only in the last block: a reduction with Python's max would drop it
    nan_map = ProxMap("nan_above_2", 1.0, lambda v, t=1.0: np.where(np.abs(v) > 2.0, np.nan, v))
    rep = verify_firm_nonexpansive(nan_map, dim=3, trials=32, tol=1e-12, seed=5)
    assert not rep.passed and np.isnan(rep.max_violation)

    # frame_prox calls the inner prox on the x then the y samples of each
    # block, so the third call onwards is the second block's
    sizes = []

    def prox(v, t=1.0):
        sizes.append(v.shape[1])
        return np.full_like(v, np.nan) if len(sizes) > 2 else v

    fs = FrameShrinkage(build_operator(np.array([[1.0], [2.0]])), ProxMap("late_nan", 1.0, prox))
    rep = verify_t_firm_nonexpansive(fs, trials=1100, tol=1e-12, seed=5)
    assert sizes == [1024, 1024, 76, 76]
    assert not rep.passed and np.isnan(rep.max_violation)


def test_regularizer_grid_export(tmp_path, capsys):
    out_path = tmp_path / "grid.csv"
    code, out, _ = run(capsys, "regularizer", "--operator", "example35", "--prox", "soft:1",
                       "--grid", "-2:2:0.01", "--out", str(out_path))
    assert code == 0
    rows = list(csv.DictReader(out_path.open()))
    assert len(rows) == 401
    by_x = {float(r["x"]): r for r in rows}
    assert abs(float(by_x[1.0]["f_numeric"]) - 2.9) <= 1e-6
    assert float(by_x[0.0]["f_numeric"]) == 0.0
    worst = max(abs(float(r["f_numeric"]) - float(r["f_closed_form"])) for r in rows)
    assert worst <= 1e-6
    branch_marks = sorted(round(float(r["x"]), 2) for r in rows if r["at_branch"] == "1")
    assert branch_marks == [-0.4, 0.4]


@pytest.mark.parametrize("argv", [
    ("verify", "--operator", "random:12x5:3", "--trials", "10", "--seed", "1"),
    ("verify", "--operator", "random:12x5:3", "--trials", "10", "--seed", "1", "--format", "csv"),
    ("verify", "--operator", "random:30x12:2", "--prox", "identity", "--trials", "10"),  # exits 1
    ("solve", "--operator", "example35", "--x", "1"),
    ("solve", "--operator", "random:6x3:2", "--x", "1,2,3", "--lambda", "0.5"),
    ("example",),
    ("regularizer", "--operator", "example35", "--grid", "-2:2:0.5"),
])
def test_out_file_mirrors_stdout(tmp_path, capsys, argv):
    out_path = tmp_path / "out.txt"
    code, out, _ = run(capsys, *argv, "--out", str(out_path))
    assert code in (0, 1) and out
    assert out_path.read_bytes() == out.encode()


@pytest.mark.parametrize("argv", [
    ("verify", "--operator", "random:12x5:3", "--tol", "nan"),
    ("regularizer", "--grid", "1:0:1"),
    ("solve", "--operator", "example35", "--x", "1,2"),
    ("example", "--tol", "1"),
])
def test_failed_run_writes_no_out_file(tmp_path, capsys, argv):
    out_path = tmp_path / "out.txt"
    code, _, _ = run(capsys, *argv, "--out", str(out_path))
    assert code == 2
    assert not out_path.exists()


def test_regularizer_json_format(capsys):
    code, out, _ = run(capsys, "regularizer", "--grid", "-1:1:0.5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["x"]) == 5
    assert len(doc["f_numeric"]) == 5
    assert "f_closed_form" in doc


def test_regularizer_multidimensional_numeric_only(capsys):
    code, out, _ = run(capsys, "regularizer", "--operator", "random:5x3:2",
                       "--prox", "soft:1", "--grid", "-1:1:0.5")
    assert code == 0
    header = out.splitlines()[0]
    assert header == "x,f_numeric"


# random:70x1:3 has 70 rows, so f's dual runs its float32 phase
@pytest.mark.parametrize("operator", ["example35", "random:70x1:3"])
def test_regularizer_d1_bytes_do_not_depend_on_the_direction(capsys, operator):
    # d = 1 draws the direction +1 at seed 0 and -1 at seed 2; soft shrinkage's f is even
    outs = [run(capsys, "regularizer", "--operator", operator, "--prox", "soft:1",
                "--grid", "-3:3:0.05", "--seed", seed) for seed in ("0", "2")]
    assert outs[0][0] == 0
    assert outs[0] == outs[1]


def test_solve_inline_vector(capsys):
    code, out, _ = run(capsys, "solve", "--operator", "example35", "--x", "1",
                       "--lambda", "1")
    assert code == 0
    lines = out.strip().splitlines()
    solve_doc = json.loads(lines[0])
    assert solve_doc["converged"] is True
    assert abs(solve_doc["minimizer"][0]) <= 1e-6
    frame_doc = json.loads(lines[1])
    assert abs(frame_doc["frame_prox"][0] - 0.4) <= 1e-12
    assert frame_doc["t_distance"] > 0.5


TWENTY_ONES = ",".join(["1"] * 20)


@pytest.mark.parametrize("tol", ["0", "1e-15", "3e-15", "1e-14"])
def test_solve_below_gap_rounding_stops_unconverged(capsys, tol):
    # the minimizer is not 0 here. The gap stalls at 2.8e-14 at iteration 5,
    # where no bound coordinate points into the box, which stops all four
    # tols unconverged
    twos = ",".join(["2"] * 20)
    code, out, _ = run(capsys, "solve", "--operator", "random:40x20:2", "--x", twos,
                       "--lambda", "0.5", "--tol", tol)
    doc = json.loads(out.splitlines()[0])
    assert code == 1 and doc["converged"] is False
    assert doc["iterations"] <= 64


@pytest.mark.parametrize("argv, iterations", [
    # the minimizer is 0, and the gap of 0, 1/2 ||y||^2, certifies it at once
    (("--operator", "random:40x20:1", "--x", TWENTY_ONES, "--tol", "1e-14"), 1000),
    # the gap is exactly 0 after the first iteration
    (("--operator", "example35", "--x", "1", "--tol", "0"), 2),
    # the first iterate's gap, 1.9, is far above its rounding; the gap
    # certifies 1.8e-15 at iteration 6
    (("--operator", "random:40x20:1", "--x", ",".join(["2"] * 20), "--lambda", "0.2",
      "--tol", "3e-15"), 6),
])
def test_solve_gap_reaching_tol_converges(capsys, argv, iterations):
    code, out, _ = run(capsys, "solve", *argv)
    doc = json.loads(out.splitlines()[0])
    assert code == 0 and doc["converged"] is True
    assert doc["iterations"] <= iterations


@pytest.mark.parametrize("operator, x", [("zeros.csv", "1,2"), ("random:0x3:1", "1,2,3")])
def test_solve_zero_or_rowless_matrix_certifies_the_data(tmp_path, capsys, operator, x):
    # T y = 0 for every y: the data is the minimizer, with gap 0, and the
    # solve does not build a frame from T
    if operator.endswith(".csv"):
        operator = str(tmp_path / operator)
        save_matrix_csv(np.zeros((3, 2)), operator)
    code, out, _ = run(capsys, "solve", "--operator", operator, "--x", x)
    doc = json.loads(out.splitlines()[0])
    assert code == 0 and doc["converged"] is True and doc["iterations"] == 1
    assert doc["minimizer"] == [float(v) for v in x.split(",")]


@pytest.mark.parametrize("tol, code", [((), 1), (("--tol", "1e305"), 0)])
def test_solve_large_data_does_not_overflow(capsys, tol, code):
    # pyproject's filterwarnings fails this test on an overflow or
    # invalid-value warning. The solve runs on x and lambda divided by a
    # power of two near max|x|; the objective, about 1.5e319, is out of
    # float64 range and prints as Infinity. The default tol 1e-10 lies far
    # below the float64 rounding of the gap at this scale, about 1e303, so
    # that solve stops unconverged; at 1e305 the gap certifies
    argv = ("--operator", "random:6x3:1", "--x", "1e160,1,-3e159", "--lambda", "3e159")
    exit_code, out, _ = run(capsys, "solve", *argv, *tol)
    solve_doc, frame_doc = (json.loads(line) for line in out.splitlines())
    assert exit_code == code and solve_doc["converged"] is (code == 0)
    assert np.all(np.isfinite(solve_doc["minimizer"]))
    assert solve_doc["objective"] == np.inf
    assert np.isfinite(frame_doc["t_distance"])


def test_solve_problem_file(tmp_path, capsys):
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({"x": [2.0, 0.0, -1.0], "lambda": 0.5}))
    code, out, _ = run(capsys, "solve", "--operator", "identity:3", "--problem", str(prob))
    assert code == 0
    doc = json.loads(out.strip().splitlines()[0])
    np.testing.assert_allclose(doc["minimizer"], [1.5, 0.0, -0.5], atol=1e-8)


@pytest.mark.parametrize("source", ["x", "problem"])
def test_solve_contrast_shrinks_at_the_solve_lambda(tmp_path, capsys, source):
    # for an orthonormal T the frame shrinkage at lambda is the analysis
    # minimizer at lambda, so the two points coincide
    if source == "x":
        argv = ("--x", "2,0,-1", "--lambda", "0.5")
    else:
        prob = tmp_path / "prob.json"
        prob.write_text(json.dumps({"x": [2.0, 0.0, -1.0], "lambda": 0.5}))
        argv = ("--problem", str(prob))
    code, out, _ = run(capsys, "solve", "--operator", "identity:3", *argv)
    solve_doc, frame_doc = (json.loads(line) for line in out.splitlines())
    assert code == 0
    assert frame_doc["frame_prox"] == solve_doc["minimizer"] == [1.5, 0.0, -0.5]
    assert frame_doc["t_distance"] == 0.0


def test_solve_problem_without_x_names_the_field(tmp_path, capsys):
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({"lambda": 1}))
    code, out, err = run(capsys, "solve", "--problem", str(prob))
    assert code == 2 and not out
    assert '"x"' in err and str(prob) in err


def test_operator_file_loading(tmp_path, capsys, rng):
    m = rng.standard_normal((5, 2))
    csv_path = tmp_path / "op.csv"
    json_path = tmp_path / "op.json"
    save_matrix_csv(m, csv_path)
    save_matrix_json(m, json_path)
    for path in (csv_path, json_path):
        code, out, _ = run(capsys, "verify", "--operator", str(path), "--prox", "soft:1",
                           "--trials", "10")
        assert code == 0


def test_example_command(capsys):
    code, out, _ = run(capsys, "example")
    assert code == 0
    assert "soft shrinkage" in out
    assert "branch point" in out
    assert "0.4" in out


def test_verify_csv_format(capsys):
    code, out, _ = run(capsys, "verify", "--operator", "identity:2", "--prox", "soft:1",
                       "--trials", "10", "--format", "csv")
    assert code == 0
    for line in out.strip().splitlines():
        assert len(line.split(",")) == 5


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_main_reuses_its_parser_and_leaks_no_option(tmp_path, capsys):
    # main builds the parser once per process; every later call must exit and
    # print as it does as the process's first call, with no --tol, --format
    # or --out carried over from an earlier one
    assert build_parser() is build_parser()
    out_path = tmp_path / "out.csv"
    calls = [
        ("verify", "--tol", "1e-3", "--format", "csv", "--out", str(out_path)),
        ("verify", "--prox", "soft:"),
        ("regularizer",),
        ("verify",),
    ]
    first = []
    for argv in calls:
        build_parser.cache_clear()
        first.append(run(capsys, *argv))
    written = out_path.read_bytes()
    out_path.unlink()

    build_parser.cache_clear()
    assert [run(capsys, *argv) for argv in calls] == first
    assert [code for code, _, _ in first] == [0, 2, 0, 0]
    assert out_path.read_bytes() == written == first[0][1].encode()
