import numpy as np
import pytest

from proxframe import (
    FrameShrinkage,
    random_operator,
    soft_shrink_map,
    verify_firm_nonexpansive,
    verify_moreau_characterization,
    verify_operator_identities,
    verify_t_firm_nonexpansive,
)
from proxframe.sampling import BLOCK, max_over_chunks, sample_trials


def test_samples_are_a_prefix_of_longer_runs():
    long = sample_trials(7, 0, 3000, dim=4, columns=2)
    for k in (1, 5, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 37):
        np.testing.assert_array_equal(sample_trials(7, 0, k, dim=4, columns=2), long[:, :, :k])


def test_samples_start_anywhere_inside_a_block():
    whole = sample_trials(11, 0, 2 * BLOCK + 37, dim=3)
    for lo, hi in ((0, BLOCK), (BLOCK, 2 * BLOCK), (2 * BLOCK, 2 * BLOCK + 37), (5, 1500)):
        np.testing.assert_array_equal(sample_trials(11, lo, hi, dim=3), whole[:, :, lo:hi])


def test_samples_carry_the_trial_scales():
    draws = sample_trials(3, 0, 3000, dim=50)
    rms = np.sqrt(np.mean(draws[0] ** 2, axis=0))
    for i, scale in enumerate((0.1, 1.0, 10.0)):
        assert abs(np.median(rms[i::3]) / scale - 1.0) < 0.05


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_chunks_are_whole_blocks(workers):
    seen = []

    def chunk(lo, hi):
        seen.append((lo, hi))
        return float(hi)

    assert max_over_chunks(chunk, 2 * BLOCK + 37, workers=workers) == 2 * BLOCK + 37
    assert sorted(seen) == [(0, BLOCK), (BLOCK, 2 * BLOCK), (2 * BLOCK, 2 * BLOCK + 37)]


def test_sampled_checks_identical_under_fanout(monkeypatch):
    op = random_operator(9, 4, np.random.default_rng(12), cond=30.0)
    fs = FrameShrinkage(op, soft_shrink_map(0.5))
    trials = 2 * BLOCK + 37
    lines = {}
    for workers in ("1", "2", "3"):
        monkeypatch.setenv("PROXFRAME_THREADS", workers)
        lines[workers] = [
            verify_t_firm_nonexpansive(fs, trials=trials, tol=1e-12, seed=4).to_json(),
            verify_firm_nonexpansive(fs.inner_prox, dim=op.n, trials=trials, tol=1e-12,
                                     seed=5).to_json(),
            verify_operator_identities(op, tol=1e-10, trials=trials, seed=6).to_json(),
            verify_moreau_characterization(fs.inner_prox, fs.inner_prox.potential, dim=op.n,
                                           trials=trials, tol=1e-6, seed=7).to_json(),
        ]
    assert lines["1"] == lines["2"] == lines["3"]
