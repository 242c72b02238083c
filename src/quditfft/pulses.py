"""Laser pulses driving the ground <-> Rydberg-band transition.

The control primitive is a pulse of fixed area: the drive strength is
kappa(t) = area * envelope(t) with the envelope normalized to unit time
integral, so ``area`` is the total Rabi angle regardless of shape or
duration. Equivalently kappa = f(t) * omega_tilde_0, the collective Rabi
frequency of :class:`RabiCouplings`, with the profile f scaled to make the
product integrate to the requested area; a resonant pi-area pulse swaps the
ground state with the radially localized core packet (slot 0).

The idealized protocol treats {ground, core packet} as a closed two-level
system, everything else frozen. In reality the band disperses while the
pulse is on, and the packet's amplitude spreads over the other slots. One
routine measures that leakage, in the energy basis throughout, where free
evolution is a phase: the full band against the frozen two-level model
under the same ``n_steps``, the pulse centered on the packet's core passage.

Both models share one propagator. A square pulse is exact: its generator is
constant in the frame rotating at the carrier detuning, so one eigh gives the
map. So is a resonant two-level pulse of any envelope, whose generator is
kappa(t) H0 for a constant H0 (the pulse-area theorem). Any other pulse, or
a call given ``n_steps``, runs fixed-step RK4 (capped at MAX_RK4_STEPS),
sampling the drive once per block of steps. The propagator maps column stacks
only: a lone pulse is one column, and each column rounds as its own call.

Couplings are stated per level. The collective Rabi frequency of the core
packet is (1/sqrt(d)) * sum_j omega_gj, the coherent enhancement of driving
d levels at once; individual level weights enter the full model as
omega_gj / collective.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import BATCH_BUDGET, EPS_STATE, MAX_RK4_STEPS
from .errors import ConfigurationError, require_unit_norm
from .wavepacket import (
    ENERGY,
    WAVEPACKET,
    AmplitudeVector,
    RydbergSpectrum,
    change_basis,
    free_evolve,
    wavepacket_basis_matrix,
)

PULSE_SHAPES = ("square", "gaussian")

# Fixed-step RK4 resolution: target steps per phase cycle, hard floor per
# pulse, and the coarseness below which results are rejected outright.
STEPS_PER_CYCLE = 200
MIN_STEPS = 100
REJECT_STEPS_PER_CYCLE = 20


@dataclass(frozen=True)
class PulseProfile:
    """One laser pulse: duration, total area, envelope shape, carrier detuning.

    The envelope integrates to 1 over [0, duration], so the time integral of
    kappa(t) = area * envelope(t) is exactly ``area``. The gaussian envelope
    is centered at duration/2 with sigma = duration/6 and renormalized after
    truncation to the pulse window.
    """

    duration: float
    area: float
    shape: str = "square"
    center_detuning: float = 0.0

    def __post_init__(self) -> None:
        for name in ("duration", "area", "center_detuning"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"pulse {name} must be finite, got {value}")
        if self.duration <= 0:
            raise ValueError(f"pulse duration must be positive, got {self.duration}")
        if self.shape not in PULSE_SHAPES:
            raise ValueError(f"shape must be one of {PULSE_SHAPES}, got {self.shape!r}")
        with np.errstate(over="ignore", invalid="ignore"):  # a gaussian's sigma = duration / 6 may round to 0
            peak = float(self.rabi(self.duration / 2.0)) if self.duration / 6.0 > 0.0 else math.inf
        if not math.isfinite(peak):  # area / duration, or the gaussian's 2.4x higher crest, overflowed
            raise ValueError(f"pulse drive area * envelope must be finite, got a peak of {peak} for area "
                             f"{self.area} over duration {self.duration}")

    def envelope(self, t: np.ndarray | float) -> np.ndarray | float:
        """Normalized envelope at time t (pulse-local, 0 outside [0, duration])."""
        t = np.asarray(t, dtype=np.float64)
        if self.shape == "square":
            inside = (t >= 0.0) & (t <= self.duration)
            return np.where(inside, 1.0 / self.duration, 0.0)
        sigma = self.duration / 6.0
        mid = self.duration / 2.0
        # Mass of the truncated gaussian over the window, for exact unit area.
        mass = math.erf(mid / (sigma * math.sqrt(2.0)))
        z = (t - mid) / sigma
        # z * z: a scalar z ** 2 goes through libm pow, which can round apart
        # from an array's exact square, and no sample may depend on the batch.
        gauss = np.exp(-0.5 * (z * z)) / (sigma * math.sqrt(2.0 * math.pi))
        inside = (t >= 0.0) & (t <= self.duration)
        return np.where(inside, gauss / mass, 0.0)

    def rabi(self, t: np.ndarray | float) -> np.ndarray | float:
        """kappa(t) = area * envelope(t)."""
        return self.area * self.envelope(t)

    def is_selective(self, t_kepler: float, d: int) -> bool:
        """Whether the pulse is short enough to address the core packet cleanly.

        The packet advances d * duration / t_kepler slots while the pulse is
        on; this returns True when that drift stays under one slot, i.e.
        duration < t_kepler / d.
        """
        if t_kepler <= 0:
            raise ValueError(f"t_kepler must be positive, got {t_kepler}")
        return self.duration < t_kepler / d


@dataclass(frozen=True)
class RabiCouplings:
    """Per-level drive couplings omega_gj, indexed by digit like the spectrum.

    ``omega_tilde_0`` is the collective core-packet coupling
    (1/sqrt(d)) * sum_j omega_gj, derived from the levels.
    """

    omega_gj: np.ndarray

    def __post_init__(self) -> None:
        omega = np.asarray(self.omega_gj, dtype=np.float64)
        if omega.ndim != 1 or omega.shape[0] < 2:
            raise ValueError(f"omega_gj must be 1-D with d >= 2 entries, got shape {omega.shape}")
        if not np.all(np.isfinite(omega)):
            raise ValueError(f"omega_gj must be finite, got {omega}")
        object.__setattr__(self, "omega_gj", omega)
        if self.omega_tilde_0 == 0.0:
            raise ValueError("couplings sum to zero; the core packet would not couple at all")

    @classmethod
    def uniform(cls, d: int, omega: float = 1.0) -> "RabiCouplings":
        return cls(np.full(d, omega))

    @property
    def d(self) -> int:
        return self.omega_gj.shape[0]

    @property
    def omega_tilde_0(self) -> float:
        return float(self.omega_gj.sum() / math.sqrt(self.d))

    def level_weights(self) -> np.ndarray:
        """omega_gj / omega_tilde_0, the per-level weights in the full model."""
        return self.omega_gj / self.omega_tilde_0


@dataclass(frozen=True)
class AtomState:
    """Ground amplitude plus the band in the wave-packet basis."""

    b_g: complex
    wp: AmplitudeVector

    def __post_init__(self) -> None:
        if self.wp.basis != WAVEPACKET:
            raise ValueError(f"AtomState carries the band in the {WAVEPACKET!r} basis, got {self.wp.basis!r}")
        object.__setattr__(self, "b_g", complex(self.b_g))

    @classmethod
    def ground(cls, d: int) -> "AtomState":
        """All population in the ground state, empty band."""
        return cls(1.0, AmplitudeVector(WAVEPACKET, np.zeros(d, dtype=np.complex128)))

    @property
    def d(self) -> int:
        return self.wp.d

    def norm(self) -> float:
        return float(math.sqrt(abs(self.b_g) ** 2 + np.sum(np.abs(self.wp.amps) ** 2)))

    def require_normalized(self, tol: float = EPS_STATE) -> None:
        require_unit_norm(self.norm(), "atom state", tol)


def resonant_pulse_map(area: float) -> np.ndarray:
    """Closed-form two-level map for a resonant pulse, ordered (ground, core).

    [[cos(area/2),   i sin(area/2)],
     [i sin(area/2), cos(area/2)  ]]

    Exact for any envelope because only the accumulated area enters on
    resonance.
    """
    half = area / 2.0
    c, s = math.cos(half), math.sin(half)
    return np.array([[c, 1j * s], [1j * s, c]], dtype=np.complex128)


def _rk4(rot: np.ndarray, pick: np.ndarray, arrow: np.ndarray, y: np.ndarray, h: np.ndarray,
         n_steps: int) -> np.ndarray:
    """``n_steps`` fixed RK4 steps of size h from the (B, d+1, 1) stack y for y' = rot y + arrow[j] @ (pick @ y),
    the arrow generator at half-step j, so step i reads half-steps 2i, 2i+1, 2i+2."""
    def deriv(j: int, y: np.ndarray) -> np.ndarray:
        return rot * y + arrow[j] @ (pick @ y)

    half, sixth = 0.5 * h, h / 6.0
    for i in range(n_steps):
        k1 = deriv(2 * i, y)
        k2 = deriv(2 * i + 1, y + half * k1)
        k3 = deriv(2 * i + 1, y + half * k2)
        k4 = deriv(2 * i + 2, y + h * k3)
        y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def _arrow(pulses: list[PulseProfile], t: np.ndarray, weights: np.ndarray, detuning: float) -> np.ndarray:
    """The drive of the generator at the (rows, B) times t, column b under pulses[b], as (rows, B, d+1, 2)
    blocks [[(i kappa/2) w exp(+i D t), 0], [0, (i kappa/2) exp(-i D t)]]: the level column fed by the
    ground, and the ground row's factor on w . levels."""
    kappa = 0.5j * np.stack([p.rabi(c) for p, c in zip(pulses, t.T)], 1)
    arrow = np.zeros(t.shape + (weights.shape[0] + 1, 2), dtype=np.complex128)
    np.multiply(kappa[..., None], weights, out=arrow[..., :-1, 0])
    arrow[..., :-1, 0] *= np.exp(+1j * detuning * t)[..., None]
    arrow[..., -1, 1] = kappa * np.exp(-1j * detuning * t)
    return arrow


def _phase_cycles(pulse: PulseProfile, offsets: np.ndarray) -> float:
    """Rough count of oscillation cycles the integrator must resolve."""
    fastest = max(abs(pulse.center_detuning), float(np.max(np.abs(offsets))))
    cycles = pulse.duration * fastest / (2.0 * math.pi) + abs(pulse.area) / (2.0 * math.pi)
    return max(cycles, 1.0)


def _resolve_steps(pulse: PulseProfile, n_steps: int | None, offsets: np.ndarray) -> int:
    cycles = _phase_cycles(pulse, offsets)
    if n_steps is None:
        n_steps = max(MIN_STEPS, math.ceil(STEPS_PER_CYCLE * cycles))
    elif n_steps < REJECT_STEPS_PER_CYCLE * cycles:
        raise ConfigurationError(
            f"n_steps={n_steps} resolves fewer than {REJECT_STEPS_PER_CYCLE} steps per phase "
            f"cycle ({cycles:.1f} cycles in this pulse); results would be untrustworthy"
        )
    if n_steps > MAX_RK4_STEPS:
        raise ConfigurationError(
            f"pulse would take {n_steps} RK4 steps, more than MAX_RK4_STEPS={MAX_RK4_STEPS}; "
            f"a square envelope without n_steps is exact and takes none"
        )
    return n_steps


def _propagate(y0: np.ndarray, offsets: np.ndarray, weights: np.ndarray, pulses: list[PulseProfile],
               n_steps: int | None) -> np.ndarray:
    """Map a (d+1, B) column stack of (levels..., ground) through B pulses by the equations of integrate_full.

    The pulses share one shape, area and detuning; column b runs through pulses[b], to the bit as its own call.

    Square, or resonant on zero offsets, with no explicit step count: in the
    frame rotating at D the generator H = diag(dw + D, 0) - (kappa/2)(w e_g^T
    + e_g w^T) is real and constant, or kappa(t) times a constant (D = 0,
    dw = 0), so one eigh at kappa = area/T gives the map V exp(-i L T) V^T, and
    a resonant two-level gaussian is its square twin to the bit; the level rows
    then return to the lab frame with exp(+i D T). The stack makes one batched eigh.
    Anything else runs RK4 on y' = A(t) y, whose generator is an arrow: the diagonal -i dw, the level
    column (i kappa/2) w exp(+i D t) and the ground row (i kappa/2) exp(-i D t) w. Each block of steps
    samples the drive once per active column into arrow tables, and a right-hand side is
    rot y + arrow[j] @ (pick @ y), O(d) work per column: pick takes (ground, w . levels) from y and the
    arrow sends them back along the column and the row. Columns run longest first and retire as their
    steps end. A block's tables, 2 (d+1) entries per half-step and column, hold no more than BATCH_BUDGET
    or the longest column's (d+1)-wide drive samples, whichever is fewer, unless one step alone exceeds it.
    """
    d, detuning = offsets.shape[0], pulses[0].center_detuning
    durations = np.array([p.duration for p in pulses])
    if n_steps is None and (pulses[0].shape == "square" or (detuning == 0.0 and not offsets.any())):
        h = np.zeros((len(pulses), d + 1, d + 1))
        h[:, :d, :d] = np.diag(offsets + detuning)
        h[:, :d, d] = h[:, d, :d] = -0.5 * (pulses[0].area / durations)[:, None] * weights
        vals, vecs = np.linalg.eigh(h)
        y = vecs.swapaxes(-1, -2) @ y0.T[..., None]
        y = (vecs @ (np.exp(-1j * vals * durations[:, None])[..., None] * y))[..., 0].T
        y[:d] *= np.exp(1j * detuning * durations)
        return y
    steps = [_resolve_steps(p, n_steps, offsets) for p in pulses]  # every column, before any step
    order = sorted(range(len(pulses)), key=lambda b: -steps[b])  # longest first, so the active columns are a prefix
    pulses, durations, n, y = [pulses[b] for b in order], durations[order], np.array(steps)[order], y0.T[order, :, None]
    h, a, first, out = (durations / n)[:, None, None], len(pulses), 0, np.empty_like(y0)
    rot, pick = np.append(-1j * offsets, 0.0)[:, None], np.zeros((2, d + 1), dtype=np.complex128)
    pick[0, d], pick[1, :d] = 1.0, weights  # (ground, w . levels)
    while a:
        rows = min(BATCH_BUDGET // (d + 1), 2 * n[0] + 1) // (2 * a)
        last = min(first + max(1, (rows - 1) // 2), n[a - 1])  # no column retires inside a block
        # Times as exact fractions of the duration: accumulating i*h + h can
        # overshoot the window by one ulp and zero a hard edge's endpoint.
        t = durations * (np.arange(2 * first, 2 * last + 1)[:, None] / (2 * n))
        y, first = _rk4(rot, pick, _arrow(pulses, t, weights, detuning), y, h, last - first), last
        keep = int(np.count_nonzero(n > last))  # the columns whose steps end here retire
        out[:, order[keep:a]] = y[keep:, :, 0].T
        y, a, durations, n, h = y[:keep], keep, durations[:keep], n[:keep], h[:keep]
    return out


def integrate_two_level(
    state: AtomState,
    pulse: PulseProfile,
    couplings: RabiCouplings,
    n_steps: int | None = None,
) -> AtomState:
    """Propagate the {ground, core packet} pair through one pulse, rest frozen.

    The drive product f(t) * collective equals area * envelope(t), so the
    couplings fix the physical scale while the pulse area fixes the rotation
    angle; choosing duration = area / collective makes the square drive sit
    at the collective Rabi frequency exactly. The one-level case of
    :func:`integrate_full` (zero offset, weight 1): a square or resonant pulse
    is exact, and on resonance bit-equal to the square pulse of its area and
    duration, within rounding of :func:`resonant_pulse_map`; a detuned
    gaussian pulse or an explicit ``n_steps`` runs fixed-step RK4 at
    STEPS_PER_CYCLE steps per phase cycle (floor MIN_STEPS), and explicit
    counts below REJECT_STEPS_PER_CYCLE per cycle raise ConfigurationError.
    """
    if couplings.d != state.d:
        raise ValueError(f"couplings have d={couplings.d} but state has d={state.d}")
    y0 = np.array([[state.wp.amps[0]], [state.b_g]], dtype=np.complex128)
    (core,), (g,) = _propagate(y0, np.zeros(1), np.ones(1), [pulse], n_steps)
    amps = state.wp.amps.copy()
    amps[0] = core
    return AtomState(g, AmplitudeVector(WAVEPACKET, amps))


def integrate_full(
    state: AtomState,
    pulse: PulseProfile,
    couplings: RabiCouplings,
    spectrum: RydbergSpectrum,
    n_steps: int | None = None,
) -> AtomState:
    """Propagate ground plus the full d-level band through one pulse.

    The band keeps dispersing while the drive is on. In the energy basis:

        d e_j / dt = -i dw_j e_j + (i/2) kappa(t) w_j exp(+i D t) b_g
        d b_g / dt =               (i/2) kappa(t) exp(-i D t) sum_j w_j e_j

    with dw_j the spectrum's frequency offsets and w_j the level weights. A
    square pulse is exact (one eigh of the constant generator); a gaussian
    pulse or an explicit ``n_steps`` runs fixed-step RK4. Reduces to
    :func:`integrate_two_level` when the offsets vanish and the couplings are
    uniform.
    """
    if couplings.d != spectrum.d:
        raise ValueError(f"couplings have d={couplings.d} but spectrum has d={spectrum.d}")
    if state.d != spectrum.d:
        raise ValueError(f"state has d={state.d} but spectrum has d={spectrum.d}")
    y0 = np.append(change_basis(state.wp, ENERGY).amps, state.b_g)[:, None]
    y = _propagate(y0, spectrum.frequency_offsets(), couplings.level_weights(), [pulse], n_steps)[:, 0]
    return AtomState(y[-1], change_basis(AmplitudeVector(ENERGY, y[:-1]), WAVEPACKET))


def selectivity_error(
    spectrum: RydbergSpectrum,
    pulse: PulseProfile,
    couplings: RabiCouplings,
    n_steps: int | None = None,
) -> float:
    """Leakage of a core-packet pulse relative to the frozen two-level model.

    The pulse is timed the way the protocol schedules it: the core packet
    crosses the inner turning point at its center, so the run starts from the
    core packet free-evolved back by half the duration. The full band runs
    through the pulse and is compared with the ideal, the two-level model's
    map under the same ``n_steps`` fired at the center, the band otherwise
    frozen: leakage = 1 - |<ideal|full>|^2, all in the energy basis.

    Warns when the pulse is too long to be selective in the first place.
    """
    if not pulse.is_selective(spectrum.t_kepler, spectrum.d):
        warnings.warn(
            f"pulse duration {pulse.duration:.3g} is not selective for t_kepler="
            f"{spectrum.t_kepler:.3g}, d={spectrum.d}; leakage will be large",
            stacklevel=2,
        )
    return float(_leakages(spectrum, couplings, [pulse], n_steps)[0])


def _leakages(spectrum: RydbergSpectrum, couplings: RabiCouplings, pulses: list[PulseProfile],
              n_steps: int | None) -> np.ndarray:
    """1 - |<ideal|full>|^2 after each pulse of one shape, area and detuning, in the energy basis.

    Each run starts at the core packet's level amplitudes U[:, 0] free-evolved back by half its pulse;
    the full band and the {core, ground} pair each take one stacked propagation under ``n_steps``.
    """
    if couplings.d != spectrum.d:
        raise ValueError(f"couplings have d={couplings.d} but spectrum has d={spectrum.d}")
    half = np.array([p.duration for p in pulses]) / 2.0
    core = AmplitudeVector(ENERGY, wavepacket_basis_matrix(spectrum.d)[:, 0])
    back, ahead = (np.array([v.amps for v in free_evolve(core, spectrum, dt)]) for dt in (-half, half))
    pair = np.outer([1.0, 0.0], np.ones(len(pulses), dtype=np.complex128))  # (core, ground)
    full = _propagate(np.vstack([back.T, pair[1]]), spectrum.frequency_offsets(), couplings.level_weights(),
                      pulses, n_steps)
    ideal = _propagate(pair, np.zeros(1), np.ones(1), pulses, n_steps)
    overlap = np.conj(ideal[1]) * full[-1] + (np.conj(ahead * ideal[0][:, None]) * full[:-1].T).sum(-1)
    return 1.0 - np.abs(overlap) ** 2


def selectivity_sweep(
    spectrum: RydbergSpectrum,
    couplings: RabiCouplings,
    durations: np.ndarray,
    area: float = math.pi,
    shape: str = "square",
    n_steps: int | None = None,
) -> np.ndarray:
    """Leakage for each pulse duration, all other settings shared, from one column stack per model.

    Each point is :func:`selectivity_error` at its duration to the bit, but no duration warns for being
    unselective.
    """
    durations = np.asarray(durations, dtype=np.float64)
    pulses = [PulseProfile(float(t), area, shape=shape) for t in durations.ravel()]
    if not pulses:
        return np.empty(durations.shape)
    return _leakages(spectrum, couplings, pulses, n_steps).reshape(durations.shape)
