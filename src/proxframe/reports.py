"""Report records produced by solvers and verification runs.

``to_json`` writes ``to_dict``'s keys in their fixed order, the stdout
schema of the CLI (README.md). ``sampling.sampled_check`` is the one place
that sets a sampled check's ``passed``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of a property-verification run."""

    property_name: str
    trials: int
    max_violation: float
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "property": self.property_name,
            "trials": int(self.trials),
            "max_violation": float(self.max_violation),
            "tolerance": float(self.tolerance),
            "pass": bool(self.passed),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


@dataclass(frozen=True)
class SolveReport:
    """Result of an iterative solve.

    ``residual`` holds the solver's own termination quantity (duality gap,
    certified error bound, ...); ``converged`` says whether it met the tolerance.
    """

    minimizer: np.ndarray
    objective: float | None
    iterations: int
    residual: float
    converged: bool

    def to_dict(self) -> dict:
        obj = self.objective
        if obj is not None:
            obj = float(obj)
            if math.isnan(obj):
                obj = None
        return {
            "minimizer": np.asarray(self.minimizer).ravel().tolist(),
            "objective": obj,
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())
