"""Exception types that distinguish bad arguments from broken runtime contracts,
and the one norm contract every state type checks through."""
from __future__ import annotations

import numpy as np


class ContractError(RuntimeError):
    """A runtime invariant was violated (unnormalized state, forbidden trap level)."""


class ConfigurationError(ValueError):
    """A parameter combination cannot produce a trustworthy result (e.g. too few
    integration steps for the requested pulse)."""


def require_unit_norm(norms: float | np.ndarray, noun: str, tol: float) -> None:
    """Raise ContractError naming ``noun`` if a norm is off 1 by more than ``tol``.

    ``norms`` is one state's norm or an array of per-state norms; the worst
    state decides, never a sum over the states. A NaN norm fails.
    """
    norms = np.asarray(norms, dtype=np.float64)
    n = float(norms.flat[int(np.abs(norms - 1.0).argmax())])
    if not abs(n - 1.0) <= tol:
        raise ContractError(f"{noun} norm {n} deviates from 1 by more than {tol}")
