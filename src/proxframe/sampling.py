"""Deterministic trial sampling for verification runs.

Block ``b`` of a run's trials is one counter-based stream, Philox keyed by
the run seed with counter ``b``, drawn trial-major: trial ``i``'s values
depend only on the seed, ``i`` and the sample shape, never on how many
trials the run draws. ``sampled_check`` drives every sampled check.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .reports import VerifyReport

# Trials per counter stream, and per call of a check's ``violations``.
BLOCK = 1024

# Magnitudes swept by the samplers, trial i scaled by SCALES[i % 3]; chosen
# to land samples on both sides of soft-shrinkage dead zones for the lambdas
# exercised in practice.
SCALES = np.array([0.1, 1.0, 10.0])


def _check_tol(tol) -> None:
    """Refuse a NaN or negative tol, naming it.

    No violation, gap or certificate compares <= NaN, so a check would fail
    every sample and a solve would run to its cap; a negative tol fails
    every sample of a check, and no gap or certificate of a solve meets it.
    """
    if math.isnan(tol):
        raise ValueError("tol must not be NaN")
    if tol < 0:
        raise ValueError(f"tol must be >= 0, got {tol}")


def _generator(seed: int, block: int = 0) -> np.random.Generator:
    """Counter block ``block`` of the Philox stream keyed by ``seed``.

    Raises ValueError naming the seed unless it fits the 64-bit key.
    """
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} is outside the range 0 .. 2**64 - 1")
    return np.random.Generator(np.random.Philox(key=np.uint64(seed), counter=[0, 0, 0, block]))


def sample_blocks(seed: int, trials: int, dim: int, columns: int = 1) -> Iterator[np.ndarray]:
    """Yield the samples of trials 0..trials-1, one block after another.

    Block ``b`` holds trials BLOCK*b up to the next block boundary or
    ``trials``, as a C-ordered (columns, dim, count) array: trial ``i``
    contributes ``columns`` standard normal vectors of length ``dim``,
    scaled by SCALES[i % 3].
    """
    for b, start in enumerate(range(0, trials, BLOCK)):
        count = min(BLOCK, trials - start)
        draws = _generator(seed, b).standard_normal((count, columns, dim))
        scales = SCALES[np.arange(start, start + count) % len(SCALES)]
        # C order: a strided view here would slow every solver the samples feed
        # (the CHANGES.md entry "One block sampler: one Philox stream per 1024-trial block")
        yield np.multiply(draws.transpose(1, 2, 0), scales, out=np.empty((columns, dim, count)))


def sampled_check(
    name: str, trials: int, tol: float, seed: int, dim: int, violations, columns: int = 1
) -> VerifyReport:
    """Report the largest violation over ``trials`` trials; pass if it is <= ``tol``.

    Each block of ``sample_blocks(seed, trials, dim, columns)`` is passed as
    ``violations(*block)``, which returns the block's per-trial violations.
    A NaN violation in any block makes the maximum NaN, which fails. Raises
    ValueError, before any sample is drawn, if ``trials`` < 1 or if ``tol``
    is NaN or negative (``_check_tol``): every check refuses the tol its
    caller passed, whatever inner tolerance it derives from it.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_tol(tol)
    worst = float(np.max([np.max(violations(*block))
                          for block in sample_blocks(seed, trials, dim, columns)]))
    return VerifyReport(name, trials, worst, float(tol), bool(worst <= tol))
