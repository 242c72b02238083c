"""Rydberg level manifolds and their dual radial wave-packet basis.

A band of d circular-orbit levels around principal quantum number n̄ encodes
one qudit. Levels are labelled by the signed offset j = n - n̄ drawn from the
symmetric window {-d/2+1, ..., d/2} (even d) or {-(d-1)/2, ..., (d-1)/2}
(odd d); the bijection digit = j mod d bridges signed offsets to the base-d
digits used by the gate layer.

The dual basis consists of radially localized wave packets

    |k>_τ = (1/√d) Σ_j exp(-i 2π j k / d) |j>_ν ,

so expanding an unchanged physical state in the τ basis applies the d-point
Fourier kernel to its energy amplitudes: the single-qudit Fourier gate is a
relabelling, not an evolution. The packet matrix is
:func:`quditfft.register.dft_kernel` with sign -1, the conjugate of the gate
layer's kernel. Packet k reaches the inner turning point after
k/d of a Kepler period.

Free evolution uses the Taylor expansion of the level frequencies around n̄,

    ω_j - ω_0 = 2π [ j/T_K  -  j²/(2 T_rev)  +  j³/(6 T_sr) ],

truncatable after the linear (Kepler), quadratic (revival), or cubic
(super-revival) term. T_K = 2π n̄³ in atomic units; T_rev and T_sr are free
input parameters.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .constants import EPS_STATE
from .errors import require_unit_norm
from .register import check_amplitude_count, dft_kernel

ENERGY = "energy"
WAVEPACKET = "wavepacket"

KEPLER = "kepler"
REVIVAL = "revival"
SUPER_REVIVAL = "super-revival"
TRUNCATIONS = (KEPLER, REVIVAL, SUPER_REVIVAL)

_TWO_PI_LO = 2.4492935982947064e-16  # 2 pi - float(2 pi)
_SPLITTER = 134217729.0  # 2**27 + 1, splits a float into two 26-bit halves
_MAX_FREE_TIME = sys.float_info.max / _SPLITTER  # ~1.339e300: from this time or frequency on, the split overflows


def level_offsets(d: int) -> np.ndarray:
    """Signed level offsets j, indexed by digit = j mod d.

    Even d covers {-d/2+1, ..., d/2}; odd d covers {-(d-1)/2, ..., (d-1)/2}.
    """
    if d < 2:
        raise ValueError(f"need at least two levels, got d={d}")
    digits = np.arange(d)
    return np.where(digits <= d // 2, digits, digits - d)


@dataclass(frozen=True)
class RydbergSpectrum:
    """Taylor model of d circular-level frequencies around n̄.

    ``t_rev`` and ``t_sr`` are required only when the truncation includes the
    corresponding term, and must be positive and finite whenever given. n̄ may
    be any positive number with a finite Kepler period 2π n̄³, its only use, no
    smaller than the smallest normal float (below it, 1/T_K overflows).
    """

    n_bar: float
    d: int
    t_rev: float | None = None
    t_sr: float | None = None
    truncation: str = KEPLER

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError(f"need at least two levels, got d={self.d}")
        t_kepler = self.t_kepler if self.n_bar > 0 else 0.0
        if not sys.float_info.min <= t_kepler < math.inf:
            raise ValueError(f"n_bar must be positive and finite, with 2π n̄³ finite and at least "
                             f"{sys.float_info.min:.4g}, got {self.n_bar}")
        if self.truncation not in TRUNCATIONS:
            raise ValueError(f"truncation must be one of {TRUNCATIONS}, got {self.truncation!r}")
        for name, value in (("t_rev", self.t_rev), ("t_sr", self.t_sr)):
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.truncation in (REVIVAL, SUPER_REVIVAL) and self.t_rev is None:
            raise ValueError("revival truncation requires a positive t_rev")
        if self.truncation == SUPER_REVIVAL and self.t_sr is None:
            raise ValueError("super-revival truncation requires a positive t_sr")

    @property
    def t_kepler(self) -> float:
        """Kepler orbital period 2π n̄³ (atomic units)."""
        n = float(self.n_bar)
        # a product, not n̄**3: a float power raises OverflowError where this reads inf
        return 2.0 * math.pi * (n * n * n)

    def _taylor_terms(self) -> list[np.ndarray]:
        """(ω_j - ω_0)/2π term by term up to the truncation: j/T_K, -j²/(2 T_rev), j³/(6 T_sr)."""
        j = level_offsets(self.d).astype(np.float64)
        terms = [j / self.t_kepler]
        if self.truncation in (REVIVAL, SUPER_REVIVAL):
            terms.append(j**2 / (-2.0 * self.t_rev))
        if self.truncation == SUPER_REVIVAL:
            terms.append(j**3 / (6.0 * self.t_sr))
        return terms

    def frequency_offsets(self) -> np.ndarray:
        """ω_j - ω_0 for each level, indexed by digit, honoring the truncation."""
        kepler, *rest = self._taylor_terms()
        return 2.0 * np.pi * sum(rest, kepler)

    def _free_phases(self, dt: float | np.ndarray) -> np.ndarray:
        """exp(-i (ω_j - ω_0) dt), shape (d,) for one time, (len(dt), d) for a 1-D array: the one free phase rule.

        Each argument ω_j·dt is reduced mod 2π from the exact product of the two floats (Dekker 1971), with
        2π carried to about 106 bits, so a late phase rounds like an early one. Against an exact rational
        oracle it is within about 1e-15 rad up to |ω_j·dt| ≈ 1e16, 2e-14 rad by 1e18 and 1e-12 rad by 1e20,
        as the turn count outgrows 2**53; the rounded product would be 8e-13 rad off already at 1e4.
        ``ValueError`` names the first time whose phases are not finite: from |dt| or |ω_j| =
        _MAX_FREE_TIME on the split overflows, and ω_j·dt may overflow before.
        """
        times = np.asarray(dt, dtype=np.float64)
        w, t = self.frequency_offsets(), times[..., None]
        with np.errstate(over="ignore", invalid="ignore"):
            x = t * w
            (t_hi, t_lo), (w_hi, w_lo) = _split(t), _split(w)
            r = np.fmod(x, 2.0 * math.pi)  # exact
            turns = np.rint((x - r) / (2.0 * math.pi))
            r += ((t_hi * w_hi - x) + t_hi * w_lo + t_lo * w_hi) + t_lo * w_lo - turns * _TWO_PI_LO
        if not np.isfinite(r).all():
            first = np.argmin(np.isfinite(r).all(axis=-1).ravel())
            raise ValueError(f"free evolution needs |dt| and every |w_j| below {_MAX_FREE_TIME:.4g} and w_j * dt "
                             f"finite, got dt = {times.ravel()[first].item()!r}")
        return np.exp(-1j * r)


def _split(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f = hi + lo exactly, each half with at most 26 significant bits."""
    hi = _SPLITTER * f
    hi -= hi - f
    return hi, f - hi


def wavepacket_basis_matrix(d: int) -> np.ndarray:
    """Unitary U with U[j, k] = exp(-i 2π j k / d)/√d: column k is packet k in level amplitudes.

    This is :func:`dft_kernel` with sign -1, the conjugate of the gate layer's
    Fourier kernel, built once per d and read-only. Every call checks the
    register cap first: ``ValueError`` when d*d exceeds it.
    """
    return _packet_matrices(d)[0]


def _packet_matrices(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (U, U†) under the register cap; U† is the transposed view of a cached conj(U)."""
    check_amplitude_count((d, d), f"{d}x{d} wave-packet kernel")
    return _packet_matrix(d)


@functools.lru_cache(maxsize=16)
def _packet_matrix(d: int) -> tuple[np.ndarray, np.ndarray]:
    digits = np.arange(d)
    u = dft_kernel(d, digits, digits, sign=-1)
    u_conj = u.conj()
    for m in (u, u_conj):
        m.setflags(write=False)
    return u, u_conj.T  # the strides of a fresh ``u.conj().T``, so BLAS gets the same call


@dataclass(frozen=True)
class AmplitudeVector:
    """d amplitudes of one atom in either the energy or the wave-packet basis.

    Not forced to unit norm (a register atom may share weight with other levels);
    use :meth:`require_normalized` where a closed state is expected.
    """

    basis: str
    amps: np.ndarray

    def __post_init__(self) -> None:
        if self.basis not in (ENERGY, WAVEPACKET):
            raise ValueError(f"basis must be {ENERGY!r} or {WAVEPACKET!r}, got {self.basis!r}")
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.ndim != 1 or amps.shape[0] < 2:
            raise ValueError(f"amplitude vector must be 1-D with d >= 2, got shape {amps.shape}")
        object.__setattr__(self, "amps", amps)

    @property
    def d(self) -> int:
        return self.amps.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def require_normalized(self, tol: float = EPS_STATE) -> None:
        require_unit_norm(self.norm(), "vector", tol)


def change_basis(v: AmplitudeVector, to: str) -> AmplitudeVector:
    """Re-express the same physical state in the other basis.

    This function owns the sign convention of the duality: with U the packet
    matrix, energy amplitudes e and packet amplitudes b satisfy e = U b, so
    energy -> wavepacket applies U† and the reverse applies U. Both directions
    are exact inverses of each other.
    """
    if to not in (ENERGY, WAVEPACKET):
        raise ValueError(f"basis must be {ENERGY!r} or {WAVEPACKET!r}, got {to!r}")
    if v.basis == to:
        return v
    u, u_dag = _packet_matrices(v.d)
    amps = (u_dag if to == WAVEPACKET else u) @ v.amps
    return AmplitudeVector(to, amps)


def free_evolve(v: AmplitudeVector, spectrum: RydbergSpectrum,
                dt: float | np.ndarray) -> AmplitudeVector | list[AmplitudeVector]:
    """Evolve freely for dt of either sign: energy amplitudes pick up exp(-i (ω_j - ω_0) dt).

    A 1-D array of times gives one vector per time, from one stacked product; a time whose phases
    ``RydbergSpectrum._free_phases`` cannot form (not finite, or |dt| from ~1.339e300) raises ValueError.
    In the wave-packet basis with the Kepler-only spectrum this reduces to the
    cyclic shift b_k(m T_K / d) = b_{k-m}(0): the packets hop around the orbit.
    """
    times = np.asarray(dt, dtype=np.float64)
    if times.ndim > 1:
        raise ValueError(f"free evolution needs one time or a 1-D array of them, got {dt}")
    if v.d != spectrum.d:
        raise ValueError(f"vector has d={v.d} but spectrum has d={spectrum.d}")
    phases = spectrum._free_phases(times)
    if v.basis == ENERGY:
        amps = v.amps * phases
    else:
        u, u_dag = _packet_matrices(v.d)
        # a batched matvec per time, not one GEMM, so each row rounds like a lone call
        amps = (u_dag @ (phases * (u @ v.amps))[..., None])[..., 0]
    if times.ndim == 0:
        return AmplitudeVector(v.basis, amps)
    return [AmplitudeVector(v.basis, row) for row in amps]


def dispersion_fidelity(v: AmplitudeVector, spectrum: RydbergSpectrum, dt: float) -> float:
    """Overlap |<ψ_kepler(dt)|ψ_revival(dt)>|² between truncations of the same spectrum.

    Quantifies how much the quadratic (revival) term distorts the ideal packet
    cycling over dt. Equals 1 at dt = 0 and again at dt = 2 t_rev, where the
    quadratic phases rephase completely; at dt = t_rev the residual phase is
    exp(iπ j) per level (a half-period-shifted revival), so only states
    supported on even offsets score 1 there.
    """
    if spectrum.t_rev is None:
        raise ValueError("dispersion fidelity requires t_rev on the spectrum")
    # the Kepler term is common to both truncations and cancels exactly, so only the revival term's
    # phase enters: <ψ_K|ψ_R> = Σ_j |e_j|² exp(-i Δω_j dt)
    revival_term = 2.0 * np.pi * replace(spectrum, truncation=REVIVAL)._taylor_terms()[1]
    weights = np.abs(change_basis(v, ENERGY).amps) ** 2
    norm2 = weights.sum()
    if norm2 == 0.0:
        raise ValueError("cannot compute fidelity of a zero vector")
    overlap = np.sum(weights * np.exp(-1j * revival_term * dt))
    return float(abs(overlap) ** 2 / norm2**2)
