import numpy as np
import pytest

from proxframe.sampling import BLOCK, sample_trials, sampled_check


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


@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_chunks_are_whole_blocks(blocks):
    # one violations call per BLOCK-aligned block, in order, on that
    # block's own samples; the report keeps the largest violation
    trials = blocks * BLOCK + 37
    sizes = []

    def violations(x, y):
        sizes.append(x.shape[1])
        return x[0] - y[0]

    rep = sampled_check("spy", trials, 1.0, 9, 3, violations, columns=2)
    assert sizes == [BLOCK] * blocks + [37]
    x, y = sample_trials(9, 0, trials, 3, columns=2)
    assert rep.trials == trials and rep.max_violation == float(np.max(x[0] - y[0]))
