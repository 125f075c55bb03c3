import numpy as np
import pytest

from proxframe.sampling import BLOCK, SCALES, sample_blocks, sampled_check
from support import run_samples


def test_samples_are_a_prefix_of_longer_runs():
    long = run_samples(7, 3000, dim=4, columns=2)
    for k in (1, 5, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 37):
        np.testing.assert_array_equal(run_samples(7, k, dim=4, columns=2), long[:, :, :k])


def test_blocks_are_the_seeds_philox_streams():
    # block b is Philox keyed by the seed at counter b, drawn trial-major and
    # scaled by trial; the pinned values fail on a NumPy release that
    # changes Philox or standard_normal. Blocks 0 to 3 start their scales at
    # trial offsets 0, 1, 2 and 0 mod 3, so the last one starts over at 0.1
    blocks = list(sample_blocks(7, 3 * BLOCK + 37, dim=4, columns=2))
    assert [block.shape for block in blocks] == [(2, 4, BLOCK)] * 3 + [(2, 4, 37)]
    for b, block in enumerate(blocks):
        count = block.shape[2]
        philox = np.random.Philox(key=7, counter=[0, 0, 0, b])
        draws = np.random.Generator(philox).standard_normal((count, 2, 4))
        want = draws.transpose(1, 2, 0) * SCALES[(BLOCK * b + np.arange(count)) % 3]
        assert block.flags.c_contiguous
        assert block.tobytes() == want.tobytes()
    pinned = {0: ["-0x1.6656613ef5d92p-3", "0x1.04dad26322345p-2"],
              1: ["0x1.d7c1b2a66434ep+0", "0x1.6df8cfae3dc70p+1"]}
    for b, values in pinned.items():
        assert [float(v).hex() for v in blocks[b][0, 0, :2]] == values


def test_samples_carry_the_trial_scales():
    draws = run_samples(3, 3000, dim=50)
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
    x, y = run_samples(9, trials, 3, columns=2)
    assert rep.trials == trials and rep.max_violation == float(np.max(x[0] - y[0]))
