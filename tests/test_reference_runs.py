"""The reference runs of ``reference_runs.RUNS`` against their recorded transcripts."""

from __future__ import annotations

import warnings

from reference_runs import REFERENCE, RUNS, fingerprint, run, transcript


def test_reference_runs_match_their_transcripts(tmp_path, monkeypatch):
    # regularizer --out writes f.csv into the working directory
    monkeypatch.chdir(tmp_path)
    same_env = (REFERENCE / "fingerprint.txt").read_text() == fingerprint()
    other_code, other_stdout = [], []
    for name, command in RUNS.items():
        stdout, code = run(command)
        text = (REFERENCE / f"{name}.out").read_text()
        assert text.startswith(f"$ proxframe {command}\n"), name
        if not text.endswith(f"\nexit {code}\n"):
            other_code.append(name)
        elif same_env and text != transcript(command, stdout, code):
            other_stdout.append(name)
    assert (other_code, other_stdout) == ([], [])
    if not same_env:
        # another NumPy or BLAS build may round a product differently in its
        # last bits, so only the exit codes are compared
        warnings.warn(f"environment differs from {REFERENCE / 'fingerprint.txt'} "
                      f"({fingerprint()!r}): compared exit codes alone")


def test_every_transcript_belongs_to_a_reference_run():
    assert sorted(p.stem for p in REFERENCE.glob("*.out")) == sorted(RUNS)
