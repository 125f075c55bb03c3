"""The reference runs of ``reference_runs.RUNS`` against their recorded transcripts."""

from __future__ import annotations

import itertools
import json
import warnings

from reference_runs import REFERENCE, RUNS, fingerprint, run, transcript


def verdicts(text: str) -> list[tuple[str, bool]]:
    """The (property, pass) pair of each ``verify`` report line in ``text``."""
    reports = (json.loads(line) for line in text.splitlines() if line.startswith('{"property": '))
    return [(r["property"], r["pass"]) for r in reports]


def first_difference(recorded, new) -> tuple:
    """The first pair of items at which two differing sequences differ; None stands for a missing item."""
    return next((a, b) for a, b in itertools.zip_longest(recorded, new) if a != b)


def test_reference_runs_match_their_transcripts(tmp_path, monkeypatch):
    # regularizer --out writes f.csv into the working directory
    monkeypatch.chdir(tmp_path)
    same_env = (REFERENCE / "fingerprint.txt").read_text() == fingerprint()
    other_code, other_stdout = [], []
    for name, command in RUNS.items():
        stdout, code = run(command)
        text = (REFERENCE / f"{name}.out").read_text()
        assert text.startswith(f"$ proxframe {command}\n"), name
        new = transcript(command, stdout, code)
        if not text.endswith(f"\nexit {code}\n"):
            other_code.append((name, text.splitlines()[-1], f"exit {code}"))
        elif text != new if same_env else verdicts(text) != verdicts(stdout):
            # the first recorded line, or verify verdict, and what the run gives in its place
            pair = (text.splitlines(True), new.splitlines(True)) if same_env else (verdicts(text), verdicts(stdout))
            other_stdout.append((name, *first_difference(*pair)))
    assert (other_code, other_stdout) == ([], [])
    if not same_env:
        # another NumPy or BLAS build may round a product differently in its
        # last bits, so stdout bytes are not compared; a passing verify line
        # sits at most 0.1x its tolerance in the transcripts and a failing
        # one at 29x or more, so a flipped pass flag is a finding
        warnings.warn(f"environment differs from {REFERENCE / 'fingerprint.txt'} "
                      f"({fingerprint()!r}): compared exit codes and each verify "
                      "line's property and pass alone")


def test_verdicts_read_every_verify_line():
    text = (REFERENCE / "verify_30x12_2_identity.out").read_text()
    pairs = verdicts(text)
    assert len(pairs) == 6 and ("t_firm_nonexpansive", False) in pairs
    assert verdicts(text.replace('"pass": false', '"pass": true')) != pairs
    assert verdicts((REFERENCE / "solve_example35.out").read_text()) == []


def test_every_transcript_belongs_to_a_reference_run():
    assert sorted(p.stem for p in REFERENCE.glob("*.out")) == sorted(RUNS)
