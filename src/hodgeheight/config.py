"""The default comparison tolerance.  Every call that decides a rank or
checks a residual takes its tolerance as the tol argument, defaulting to
this constant; nothing else sets it."""

DEFAULT_TOL = 1e-9
