"""Deterministic trial sampling for verification runs.

Trials fall in fixed blocks of BLOCK consecutive indices, and block ``b`` of
a run owns one counter-based stream: Philox keyed by the run seed, with
counter ``b``. A block's draws are laid out trial-major, so trial ``i``'s
values depend only on the seed, ``i`` and the sample shape, never on how
many trials the run draws (the prefix property).

``max_over_chunks`` hands each block to one ``fn(lo, hi)`` call, serially or
on a thread, so every sample and every matrix product acts on the same
columns under any PROXFRAME_THREADS: fan-out never changes a reported digit,
and a NaN from any block makes the result NaN. ``sampled_check`` drives every
sampled verification on top of both: a check supplies only the per-trial
violations of a block of samples.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .reports import VerifyReport

# Trials per counter stream, and the unit of fan-out.
BLOCK = 1024

# Magnitudes swept by the samplers, trial i scaled by SCALES[i % 3]; chosen
# to land samples on both sides of soft-shrinkage dead zones for the lambdas
# exercised in practice.
SCALES = np.array([0.1, 1.0, 10.0])


def _generator(seed: int, block: int = 0) -> np.random.Generator:
    """Counter block ``block`` of the Philox stream keyed by ``seed``.

    Raises ValueError naming the seed unless it fits the 64-bit key.
    """
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} is outside the range 0 .. 2**64 - 1")
    return np.random.Generator(np.random.Philox(key=np.uint64(seed), counter=[0, 0, 0, block]))


def sample_trials(seed: int, lo: int, hi: int, dim: int, columns: int = 1) -> np.ndarray:
    """Samples of trials ``lo..hi-1``, shape (columns, dim, hi - lo).

    Trial ``i`` contributes ``columns`` standard normal vectors of length
    ``dim``, scaled by SCALES[i % 3]. Streams start at block boundaries, so
    a range beginning inside a block draws that block's earlier trials too.
    """
    parts = []
    for b in range(lo // BLOCK, -(-hi // BLOCK)):
        start = b * BLOCK
        stop = min(hi, start + BLOCK)
        draws = _generator(seed, b).standard_normal((stop - start, columns, dim))
        parts.append(draws[max(lo, start) - start:])
    scaled = np.concatenate(parts) * SCALES[np.arange(lo, hi) % len(SCALES), None, None]
    # C order: a strided view here would slow every solver the samples feed
    return np.ascontiguousarray(scaled.transpose(1, 2, 0))


def worker_count() -> int:
    """Worker cap from PROXFRAME_THREADS (default 1)."""
    raw = os.environ.get("PROXFRAME_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def max_over_chunks(fn, trials: int, workers: int | None = None) -> float:
    """Max of ``fn(lo, hi)`` over the BLOCK-aligned blocks of range(trials).

    Each block is exactly one call, whatever the worker count, so the
    partition cannot affect the result; below BLOCK trials there is a single
    block and nothing to fan out. A NaN from any block makes the result NaN.
    """
    jobs = [(lo, min(lo + BLOCK, trials)) for lo in range(0, trials, BLOCK)]
    workers = min(worker_count() if workers is None else workers, len(jobs))
    if workers <= 1:
        parts = [fn(lo, hi) for lo, hi in jobs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda b: fn(*b), jobs))
    return float(np.max(parts))


def sampled_check(
    name: str, trials: int, tol: float, seed: int, dim: int, violations, columns: int = 1
) -> VerifyReport:
    """Report the largest violation over ``trials`` trials; pass if it is <= ``tol``.

    Each block's ``sample_trials(seed, lo, hi, dim, columns)`` is passed as
    ``violations(*samples)``, which returns the block's per-trial violations.
    A NaN violation makes the maximum NaN, which fails. Raises ValueError if
    ``trials`` < 1.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")

    def block(lo: int, hi: int) -> float:
        return np.max(violations(*sample_trials(seed, lo, hi, dim, columns)))

    worst = max_over_chunks(block, trials)
    return VerifyReport(name, trials, worst, float(tol), bool(worst <= tol))
