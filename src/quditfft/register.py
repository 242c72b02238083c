"""Dense qudit registers and base-d index arithmetic.

A register of q qudits with d levels each holds N = d**q complex amplitudes.
Amplitude index a corresponds to the digit string |a_{q-1}, ..., a_1, a_0>
with a = sum_m a_m d**m, i.e. digit m is the coefficient of d**m and digit 0
is the least significant.
"""
from __future__ import annotations

import os
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .constants import DEFAULT_MAX_AMPS, EPS_STATE, MAX_AMPS_ENV
from .errors import require_unit_norm


def _amplitude_cap() -> int:
    raw = os.environ.get(MAX_AMPS_ENV)
    if raw is None:
        return DEFAULT_MAX_AMPS
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{MAX_AMPS_ENV} must be an integer, got {raw!r}") from exc
    if cap < 2:
        raise ValueError(f"{MAX_AMPS_ENV} must be at least 2, got {cap}")
    return cap


def check_amplitude_count(factors: Iterable[int], what: str, cap: int | None = None) -> None:
    """Raise ValueError naming QUDITFFT_MAX_AMPS if the product of ``factors`` exceeds the cap.

    The cap is ``cap`` when given, else the environment's (default 2**20).
    Multiplies up to the cap, one factor at a time (at most log2(cap) + 1
    steps for factors >= 2), so a product like d**q for a huge q is never
    formed; callers check before they allocate.
    """
    cap = _amplitude_cap() if cap is None else cap
    n = 1
    for factor in factors:
        n *= factor
        if n > cap:
            raise ValueError(f"{what} exceeds the cap of {cap} (raise {MAX_AMPS_ENV} to override)")


@dataclass(frozen=True)
class RegisterShape:
    """Geometry of a register: q qudits of dimension d.

    The dense amplitude count d**q is capped (default 2**20) to keep memory
    bounded; the cap can be raised explicitly via ``max_amps`` or globally via
    the QUDITFFT_MAX_AMPS environment variable.
    """

    d: int
    q: int
    max_amps: int | None = field(default=None, compare=False)  # a cap, not geometry

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError(f"qudit dimension must be >= 2, got d={self.d}")
        if self.q < 1:
            raise ValueError(f"register needs at least one qudit, got q={self.q}")
        check_amplitude_count(
            (self.d for _ in range(self.q)),
            f"register of {self.d}**{self.q} amplitudes",
            self.max_amps,
        )

    @property
    def n_amps(self) -> int:
        return self.d**self.q


def dft_table(n: int, sign: int = 1) -> np.ndarray:
    """The n distinct entries exp(sign·i 2π k / n) / sqrt(n) of the n-point DFT kernel.

    The angle is an exact rational k/n of a turn before exponentiation, so
    entries like -1 and ±i are accurate to machine precision.
    """
    if sign not in (1, -1):
        raise ValueError(f"kernel sign must be +1 or -1, got {sign}")
    return np.exp(sign * 2j * np.pi * np.arange(n) / n) / np.sqrt(n)


def dft_exponents(
    n: int, rows: np.ndarray, cols: np.ndarray, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Index (r·c) mod n into :func:`dft_table` of kernel entry (r, c), for r in rows, c in cols.

    ``out``, an int64 array of shape (len(rows), len(cols)), receives the result when given.
    """
    idx = np.multiply(np.asarray(rows)[:, None], np.asarray(cols)[None, :], out=out)
    # in place: a fresh result array of this size costs more than the remainder.
    # For n = 2**k the mask gives the same floor remainder (two's complement),
    # at about a tenth of its cost.
    if n & (n - 1) == 0:
        return np.bitwise_and(idx, n - 1, out=idx)
    return np.remainder(idx, n, out=idx)


def dft_kernel(n: int, rows: np.ndarray, cols: np.ndarray, sign: int = 1) -> np.ndarray:
    """Block K[r, c] = exp(sign·i 2π r c / n) / sqrt(n) of the n-point DFT kernel.

    Every entry is gathered from :func:`dft_table` at :func:`dft_exponents`,
    so a block costs n complex exponentials however many rows it has. The
    package builds every DFT kernel here.
    """
    return dft_table(n, sign)[dft_exponents(n, rows, cols)]


def dit_reversal_permutation(shape: RegisterShape) -> np.ndarray:
    """Index permutation P with P[c] = value of the digit-reversed string of c."""
    # Reversing the j+1 digits of c = a·d**j + r gives a + d·(r reversed over
    # j digits), so block a of P_{j+1} is d·P_j + a. The array holds P_j
    # scaled by d**(q-j), the weight its digits end up with: block 0 is then
    # already in place, and block a is the scaled P_j plus a·d**(q-j-1). One
    # int64 array and one add per block, no transpose of a q-axis view.
    d = shape.d
    perm = np.empty(shape.n_amps, dtype=np.int64)
    weight = shape.n_amps // d
    np.multiply(np.arange(d), weight, out=perm[:d])
    n = d
    while n < shape.n_amps:
        weight //= d
        for a in range(1, d):
            np.add(perm[:n], a * weight, out=perm[a * n : (a + 1) * n])
        n *= d
    return perm


@dataclass
class QuditState:
    """Dense statevector over a qudit register.

    The amplitude array is not forced to unit norm on construction (linear maps
    are applied to arbitrary vectors); use :meth:`require_normalized` where a
    physical state is expected.
    """

    shape: RegisterShape
    amps: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.shape != (self.shape.n_amps,):
            raise ValueError(
                f"amplitude array has shape {amps.shape}, expected ({self.shape.n_amps},)"
            )
        self.amps = amps

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2

    def require_normalized(self, tol: float = EPS_STATE) -> None:
        require_unit_norm(self.norm(), "state", tol)


def measure_register(state: QuditState, rng_seed: int) -> tuple[int, ...]:
    """Sample one outcome from |amplitude|^2 as its digits, most significant first.

    Deterministic for a given seed.
    """
    state.require_normalized()
    probs = state.probabilities()
    probs = probs / probs.sum()
    rng = np.random.default_rng(rng_seed)
    outcome = int(rng.choice(state.shape.n_amps, p=probs))
    return tuple(int(x) for x in np.unravel_index(outcome, (state.shape.d,) * state.shape.q))
