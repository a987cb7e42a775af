"""Run-time configuration: the default comparison tolerance."""
from __future__ import annotations

import os

DEFAULT_TOL = 1e-9


def default_tol() -> float:
    """Comparison/pivot tolerance; the HODGE_TOL env var overrides the built-in default."""
    env = os.environ.get("HODGE_TOL")
    if env is not None:
        return float(env)
    return DEFAULT_TOL
