"""Dense qudit registers and base-d index arithmetic.

A register of q qudits with d levels each holds N = d**q complex amplitudes.
Amplitude index a corresponds to the digit string |a_{q-1}, ..., a_1, a_0>
with a = sum_m a_m d**m, i.e. digit m is the coefficient of d**m and digit 0
is the least significant.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .constants import DEFAULT_MAX_AMPS, EPS_STATE, MAX_AMPS_ENV
from .errors import ContractError


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


@dataclass(frozen=True)
class RegisterShape:
    """Geometry of a register: q qudits of dimension d.

    The dense amplitude count d**q is capped (default 2**20) to keep memory
    bounded; the cap can be raised explicitly via ``max_amps`` or globally via
    the QUDITFFT_MAX_AMPS environment variable.
    """

    d: int
    q: int
    max_amps: int | None = None

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError(f"qudit dimension must be >= 2, got d={self.d}")
        if self.q < 1:
            raise ValueError(f"register needs at least one qudit, got q={self.q}")
        cap = self.max_amps if self.max_amps is not None else _amplitude_cap()
        # Multiply up to the cap (at most log2(cap) + 1 steps, since d >= 2)
        # instead of forming d**q, which for huge q takes unbounded time.
        n = 1
        for _ in range(self.q):
            n *= self.d
            if n > cap:
                raise ValueError(
                    f"register of {self.d}**{self.q} amplitudes exceeds the cap "
                    f"of {cap} (raise {MAX_AMPS_ENV} to override)"
                )

    @property
    def n_amps(self) -> int:
        return self.d**self.q


@dataclass(frozen=True)
class DitString:
    """A base-d digit string, most significant digit first."""

    digits: tuple[int, ...]
    d: int

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError(f"digit base must be >= 2, got {self.d}")
        if not self.digits:
            raise ValueError("digit string must be non-empty")
        for x in self.digits:
            if not 0 <= x < self.d:
                raise ValueError(f"digit {x} out of range for base {self.d}")

    @property
    def q(self) -> int:
        return len(self.digits)

    def value(self) -> int:
        """Integer value, digit m weighting d**m (last digit least significant)."""
        v = 0
        for x in self.digits:
            v = v * self.d + x
        return v

    def digit(self, m: int) -> int:
        """Digit at significance m (m=0 is least significant)."""
        if not 0 <= m < self.q:
            raise ValueError(f"digit index {m} out of range for q={self.q}")
        return self.digits[self.q - 1 - m]


def encode_dits(a: int, shape: RegisterShape) -> DitString:
    """Base-d digits of amplitude index ``a``, most significant first."""
    if not 0 <= a < shape.n_amps:
        raise ValueError(f"index {a} out of range for {shape.n_amps} amplitudes")
    digits = []
    rest = a
    for _ in range(shape.q):
        digits.append(rest % shape.d)
        rest //= shape.d
    return DitString(tuple(reversed(digits)), shape.d)


def dit_reverse(s: DitString) -> DitString:
    """Reverse the digit order. An involution."""
    return DitString(tuple(reversed(s.digits)), s.d)


def dft_table(n: int, sign: int = 1) -> np.ndarray:
    """The n distinct entries exp(sign·i 2π k / n) / sqrt(n) of the n-point DFT kernel.

    The angle is an exact rational k/n of a turn before exponentiation, so
    entries like -1 and ±i are accurate to machine precision.
    """
    if sign not in (1, -1):
        raise ValueError(f"kernel sign must be +1 or -1, got {sign}")
    return np.exp(sign * 2j * np.pi * np.arange(n) / n) / np.sqrt(n)


def dft_exponents(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Index (r·c) mod n into :func:`dft_table` of kernel entry (r, c), for r in rows, c in cols."""
    idx = np.asarray(rows)[:, None] * np.asarray(cols)[None, :]
    # in place: a fresh result array of this size costs more than the remainder
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
        n = self.norm()
        if abs(n - 1.0) > tol:
            raise ContractError(f"state norm {n} deviates from 1 by more than {tol}")


def basis_state(a: int, shape: RegisterShape) -> QuditState:
    """Computational basis state |a> as a dense statevector."""
    if not 0 <= a < shape.n_amps:
        raise ValueError(f"basis index {a} out of range for {shape.n_amps} amplitudes")
    amps = np.zeros(shape.n_amps, dtype=np.complex128)
    amps[a] = 1.0
    return QuditState(shape, amps)


def measure_register(state: QuditState, rng_seed: int) -> DitString:
    """Sample one digit string from |amplitude|^2. Deterministic for a given seed."""
    state.require_normalized()
    probs = state.probabilities()
    probs = probs / probs.sum()
    rng = np.random.default_rng(rng_seed)
    outcome = int(rng.choice(state.shape.n_amps, p=probs))
    return encode_dits(outcome, state.shape)
