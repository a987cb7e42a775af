"""Run-time configuration: the default comparison tolerance."""
from __future__ import annotations

import math
import os

from .errors import HodgeError

DEFAULT_TOL = 1e-9


def default_tol() -> float:
    """Comparison/pivot tolerance; the HODGE_TOL env var overrides the built-in
    default.  This is the one place HODGE_TOL is parsed: a value that does not
    parse as a finite positive float raises HodgeError."""
    env = os.environ.get("HODGE_TOL")
    try:
        tol = DEFAULT_TOL if env is None else float(env)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise HodgeError(f"HODGE_TOL must be a finite positive number, got {env!r}")
    return tol
