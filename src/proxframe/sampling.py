"""Deterministic trial sampling for verification runs.

Every trial owns a counter-based random stream (Philox keyed by the run seed,
counter block set from the trial index), so a run's samples do not depend on
execution order. Verification trials may therefore be fanned out across
threads and reduced with a NaN-propagating max without changing any
reported number.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Magnitudes swept by the pair samplers; chosen to land samples on both sides
# of soft-shrinkage dead zones for the lambdas exercised in practice.
SCALES = (0.1, 1.0, 10.0)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent generator for one trial of a seeded run."""
    bit = np.random.Philox(key=np.uint64(seed), counter=[0, 0, 0, np.uint64(trial)])
    return np.random.Generator(bit)


def sample_block(seed: int, dim: int, trials: int, columns: int = 1) -> np.ndarray:
    """Sample ``trials`` vectors (or vector tuples) with per-trial streams.

    Returns an array of shape (columns, dim, trials); trial ``i`` fills
    ``[:, :, i]`` from its own stream, scaled by SCALES[i % len(SCALES)].
    """
    out = np.empty((columns, dim, trials))
    for i in range(trials):
        rng = trial_rng(seed, i)
        scale = SCALES[i % len(SCALES)]
        out[:, :, i] = scale * rng.standard_normal((columns, dim))
    return out


def worker_count() -> int:
    """Worker cap from PROXFRAME_THREADS (default 1)."""
    raw = os.environ.get("PROXFRAME_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def max_over_chunks(fn, trials: int, workers: int | None = None) -> float:
    """Max of ``fn(lo, hi)`` over a partition of range(trials).

    ``fn`` must compute the max violation for trials ``lo..hi-1`` using only
    per-trial streams, so the partition cannot affect the result. A NaN from
    any chunk makes the result NaN, whatever the partition.
    """
    if workers is None:
        workers = worker_count()
    if trials <= 0:
        return 0.0
    workers = min(workers, trials)
    if workers <= 1:
        return fn(0, trials)
    bounds = np.linspace(0, trials, workers + 1).astype(int)
    jobs = [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(lambda b: fn(*b), jobs))
    return float(np.max(parts))
