"""Two-ion realization of the conditional phase gate on a phonon bus.

Two trapped ions each carry one qudit in a band of d circular Rydberg levels;
a shared trap mode (capped at phonon numbers {0, 1}) mediates the
interaction. The control ion stores its digit in the energy basis; the target
ion is tracked in the wave-packet basis, where digits live after the
single-qudit Fourier relabelling. One conditional-phase run addresses a
single (level j, packet k) pair with five pulses:

    1. core swap on the target ion at a time when packet k sits at the inner
       turning point: packet k  <->  target ground state,
    2. phonon sideband pi pulse on the control ion: |j, 0 phonons> <->
       |ground, 1 phonon>,
    3. detuned drive on the target ion's auxiliary transition completing an
       integer number of generalized Rabi cycles on {|ground, 1 phonon>,
       |aux excited, 0 phonons>}; the cycle leaves populations unchanged and
       imprints the phase p*pi*(1 + detuning/omega_ge), which the detuning
       dials to any target value,
    4. sideband pi pulse undoing step 2,
    5. core swap undoing step 1.

Only the (j, k) branch passes through |ground, ground, 1 phonon> and
receives the dialed phase. Branches sharing just j or just k pick up -1 from
a completed pulse pair; composing the d*d runs cancels every -1, leaving the
pure diagonal phase gate.

There is one schedule type and one schedule path: a ``PulseSchedule`` holds a
pulse sequence as read-only arrays, ``build_phase_gate_schedule`` compiles the
5*d*d pulses of the composed gate into one, and one private loop fires it, for
``execute_schedule`` and ``verify_hybrid_gate`` alike. The state clock is the
schedule's own pulse times: after a schedule the state time is its last pulse
time, exactly.

Conventions and idealizations:
  * Rotating frame: band amplitudes rotate at the spectrum's frequency
    offsets w_j; both ionic ground states, the auxiliary level, and the trap
    mode carry no free phase. Pulses are instantaneous maps at their nominal
    times (swaps and sidebands: the pulse layer's ``resonant_pulse_map(pi)``);
    the trap is hard-capped at one phonon: leaving the cap raises ContractError.
  * A state may carry leading batch axes, amps of shape (..., d+1, d+2, 2).
    Every map acts on each state of the stack on its own, and every contract
    (phonon cap, norm) is checked per state, never on the sum over the stack.
  * The executor works in the interaction frame of the free level phases of
    both ions, the frame in which Cirac & Zoller (PRL 74, 4091, 1995) write
    the laser-ion coupling. It copies its input once into a target-leading
    buffer (d+2, ..., d+1, 2) whose target rows 0..d-1 hold the energy
    amplitudes e~_j = exp(+i w_j tau) e_j, e = U b (U the packet matrix,
    tau the time since the schedule's start); the control levels carry the
    same factor. Free evolution is the identity there, so only pulses act:
    a core swap is the pi pulse on (a = c^dag e~, target ground) with
    c_j = U[j, 0] exp(+i w_j tau), then the rank-one update e~ += c (a' - a);
    a sideband on level j gains exp(+i w_j tau) on the entry into |j, 0> and
    exp(-i w_j tau) on the entry into |ground, 1>; the auxiliary drive is
    unchanged. Every phase and 2x2 map of a schedule is made before the first
    pulse fires. There is one free phase rule, ``RydbergSpectrum._free_phases``,
    which reduces w_j dt mod 2 pi from the exact float product: the frame
    phase exp(+i w_j tau) is its value at dt = -tau, and ``free_evolve_joint``
    reads it at dt (pulse times are refused from tau ~ 1.339e300 on). U and
    U^dag appear only at the state boundary; the input is never written. ``verify_hybrid_gate`` loads
    U[:, k0] for the d*d basis states (j0, k0) into one such buffer, fires
    the schedule run by run, reads the trap row after each run, and reads its
    process matrix as U^dag e~, the final state evolved back to tau = 0.
  * While an amplitude is parked in a ground state it stops accruing band
    phase. With the default two-Kepler-period run the park windows span whole
    Kepler periods, so plain free-evolution compensation is exact run by run;
    with one-period runs the windows only telescope to whole periods across
    a composed d*d-run gate.
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .constants import EPS_STATE
from .errors import ContractError, require_unit_norm
from .pulses import resonant_pulse_map
from .register import RegisterShape, check_amplitude_count
from .wavepacket import _MAX_FREE_TIME, RydbergSpectrum, _packet_matrices, level_offsets

PULSE_KINDS = ("packet_swap", "sideband", "aux")
_SWAP, _SIDEBAND, _AUX = range(len(PULSE_KINDS))  # the kind codes of a PulseSchedule
_UPDATE_BYTES = 1 << 18  # a swap updates the level rows in blocks whose outer product stays in cache
_MAX_MULTIPLICITY = 2**32  # whole auxiliary cycles per drive, for configs and hand-built schedules alike

# Ion axis layout: the control ion uses indices 0..d-1 for band levels in the
# energy basis and index d for its ground state. The target ion uses 0..d-1
# for wave-packet slots, d for its ground state, d+1 for the auxiliary
# excited level. Axis 2 is the shared trap mode {0, 1}.


@dataclass(frozen=True)
class TrapParams:
    """Laser configuration for the two-ion register.

    ``omega_ge`` is the generalized Rabi frequency of the auxiliary
    transition and fixes the conditional-phase pulse duration. The executor
    models no trap frequency or Lamb-Dicke parameter: pulses are
    instantaneous and the trap mode is hard-capped at one phonon.
    """

    omega_ge: float = 50.0

    def __post_init__(self) -> None:
        # the auxiliary map squares omega_ge, so its square must be finite too (omega_ge below ~1.34e154)
        omega = float(self.omega_ge)
        if not (omega > 0 and math.isfinite(omega * omega)):
            raise ValueError(f"omega_ge must be positive and finite, with a finite square, got {self.omega_ge}")


@dataclass(frozen=True)
class JointIonState:
    """Joint amplitudes of control ion, target ion, and trap mode at time t.

    ``amps`` has shape (..., d+1, d+2, 2): optional leading batch axes, then
    the axis layout described at module top. All states of a stack share the
    time ``t``. Norm is not enforced on construction; ``norm`` returns a float
    for an unbatched state and an array over the batch axes otherwise.
    """

    d: int
    amps: np.ndarray
    t: float = 0.0

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError(f"need at least two levels, got d={self.d}")
        amps = np.asarray(self.amps, dtype=np.complex128)
        want = (self.d + 1, self.d + 2, 2)
        if amps.shape[-3:] != want:
            raise ValueError(f"amps shape {amps.shape} does not match layout (..., {want})")
        object.__setattr__(self, "amps", amps)

    def norm(self) -> float | np.ndarray:
        norm = np.sqrt(np.sum(np.abs(self.amps) ** 2, axis=(-3, -2, -1)))
        return float(norm) if norm.ndim == 0 else norm

    def require_normalized(self, tol: float = EPS_STATE) -> None:
        """Raise ContractError if any state of the stack is off unit norm."""
        require_unit_norm(self.norm(), "joint state", tol)


def _to_frame(state: JointIonState, spectrum: RydbergSpectrum) -> np.ndarray:
    """A target-leading frame buffer of the state, frame time state.t: packet slots b become U b."""
    d = state.d
    if d != spectrum.d:
        raise ValueError(f"state has d={d} but spectrum has d={spectrum.d}")
    buf = np.moveaxis(state.amps, -2, 0).copy()
    levels = buf[:d].reshape(d, -1)
    levels[...] = _packet_matrices(d)[0] @ levels
    return buf


def _from_frame(buf: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """The public amps of a frame buffer: both ions' levels pick up ``phases``,
    exp(-i w_j dt) for the dt since the frame time, the target's then go back
    to packet slots by U^dag."""
    d = phases.shape[0]
    levels = buf[:d].reshape(d, -1)
    levels[...] = _packet_matrices(d)[1] @ (phases[:, None] * levels)
    buf[..., :d, :] *= phases[:, None]
    return np.moveaxis(buf, 0, -2).copy()


def free_evolve_joint(state: JointIonState, spectrum: RydbergSpectrum, dt: float) -> JointIonState:
    """Free evolution for dt of either sign (negative removes earlier phases).

    Control band levels pick up exp(-i dw_j dt) from ``RydbergSpectrum._free_phases``, the rule the
    executor's frame reads; target packet slots go to levels by U, pick up the same phases and come back
    by U^dag. Ground states, the auxiliary level, and the trap mode stay fixed in this frame.
    """
    return JointIonState(state.d, _from_frame(_to_frame(state, spectrum), spectrum._free_phases(dt)), state.t + dt)


def _rotate(m: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 2x2 map m = (m00, m01, m10, m11) on the pair (a, b); 0-d views multiply faster than scalars."""
    return m[0, ...] * a + m[1, ...] * b, m[2, ...] * a + m[3, ...] * b


def _require_within_cap(stranded_amps: np.ndarray, axis: int, where: str, pulse: str) -> None:
    """ContractError if any single state holds more than EPS_STATE in ``where``.

    ``axis`` of ``stranded_amps`` runs over one state's amplitudes in the
    doubly excited subspace, the other axes over the stack.
    """
    if np.vdot(stranded_amps, stranded_amps).real > EPS_STATE:  # the stack's total bounds every state's
        worst = float((np.abs(stranded_amps) ** 2).sum(axis=axis).max())
        if worst > EPS_STATE:
            raise ContractError(f"population {worst:.3e} in {where} would leave the single-phonon cap "
                                f"under {pulse}")


def _require_all(ok: np.ndarray, what: str, values: np.ndarray) -> None:
    """ValueError naming the first entry of ``values`` where ``ok`` is false."""
    if not ok.all():
        first = np.argmin(ok)  # a slice, so an object column gives its Python int too
        raise ValueError(f"{what}, got {values.ravel()[first : first + 1].item()!r}")


def check_multiplicity(multiplicity: int, omega_ge: float) -> int:
    """The auxiliary drive runs a whole number p of cycles, 1 <= p <= 2**32, for a finite 2 pi p / omega_ge;
    returns p."""
    # The dialed phase p*pi*(1 + x) carries p*pi times the rounding of the solved x, and a gate's 1 - F
    # grows as its square: about 2e-12 at p = 2**32 but 6e-10 at 2**36 (d = 3 and 6), against
    # EPS_FIDELITY = 1e-9. Up to 2**32 rounding stays two orders of magnitude under the gate's tolerance.
    if not 1 <= multiplicity <= _MAX_MULTIPLICITY or multiplicity != int(multiplicity):
        raise ValueError(f"multiplicity must be a finite integer from 1 to 2**32 = {_MAX_MULTIPLICITY}, "
                         f"got {multiplicity}")
    if not 2.0 * math.pi * int(multiplicity) / float(omega_ge) < math.inf:  # else the auxiliary map takes cos(inf)
        raise ValueError(f"omega_ge must be large enough that the drive time 2π·multiplicity / omega_ge is finite, "
                         f"got {omega_ge} with multiplicity {multiplicity}")
    return int(multiplicity)


def check_kepler_periods(kepler_periods: float) -> None:
    """A run spans at least one Kepler period (a fractional count only warns)."""
    if not 1 <= kepler_periods < math.inf:
        raise ValueError(f"kepler_periods must be finite and at least 1, got {kepler_periods}")


def check_gate_time(spectrum: RydbergSpectrum, kepler_periods: float) -> None:
    """A gate's runs each start within a period of the last and span kepler_periods, so its d*d runs end
    before d^2 (kepler_periods + 1) T_K; n_bar is named if even one-period runs pass the limit, and if
    a level frequency w_j, which is split like a time, reaches it through j / T_K (t_rev_ratio or
    t_sr_ratio if through a larger revival or super-revival term)."""
    with np.errstate(over="ignore", invalid="ignore"):
        largest = [np.max(np.abs(term)) for term in spectrum._taylor_terms()]
        fastest = np.max(np.abs(spectrum.frequency_offsets()))
    if not fastest < _MAX_FREE_TIME:
        i = int(np.argmax(largest))  # the first of equal terms, so n_bar wins a tie
        name, term = (("n_bar", "j / n̄³"), ("t_rev_ratio", "j² / (2 T_rev)"), ("t_sr_ratio", "j³ / (6 T_sr)"))[i]
        value = spectrum.n_bar if i == 0 else (spectrum.t_rev, spectrum.t_sr)[i - 1] / spectrum.t_kepler
        raise ValueError(f"{name} must be large enough that the level frequencies w_j, about {term}, stay below "
                         f"{_MAX_FREE_TIME:.4g}, got d = {spectrum.d}, {name} = {value}")
    for name, periods in (("n_bar", 1), ("kepler_periods", kepler_periods)):
        if spectrum.d**2 * (periods + 1) * spectrum.t_kepler >= _MAX_FREE_TIME:
            raise ValueError(f"{name} must be small enough that d²·(kepler_periods + 1)·T_K, the bound on a gate's "
                             f"pulse times, stays below {_MAX_FREE_TIME:.4g}, got d = {spectrum.d}, "
                             f"n_bar = {spectrum.n_bar}, kepler_periods = {kepler_periods}")


def check_gate_qudits(l: int, m: int, q: int) -> None:
    """A phase gate couples a control qudit l to a target qudit m with 0 <= l < m < q."""
    if not 0 <= l < m < q:
        raise ValueError(f"need 0 <= control_index l < target_index m < q={q}, got l={l}, m={m}")


def solve_aux_detuning(phi: float, omega_ge: float, multiplicity: int = 1) -> float:
    """Detuning whose completed auxiliary cycle imprints phase ``phi`` (mod 2 pi).

    Among the detunings satisfying the congruence with |detuning| <=
    omega_ge, returns the one of smallest magnitude, preferring the positive
    sign on a tie.
    """
    if not 0 < omega_ge < math.inf:
        raise ValueError(f"omega_ge must be positive and finite, got {omega_ge}")
    if not math.isfinite(phi):
        raise ValueError(f"phase must be finite, got {phi}")
    p = check_multiplicity(multiplicity, omega_ge)
    base = phi / (p * math.pi) - 1.0
    # Admissible ratios x = detuning/omega_ge are base + 2n/p within [-1, 1].
    lo = math.ceil(p * (-1.0 - base) / 2.0 - 1e-12)
    hi = math.floor(p * (1.0 - base) / 2.0 + 1e-12)
    # |x| is least next to n = -base p / 2, so three candidates stand for all p + 1 of them
    m = round(-base * p / 2.0)
    best: float | None = None
    for n in range(max(lo, m - 1), min(hi, m + 1) + 1):
        x = base + 2.0 * n / p
        if x < -1.0 - 1e-12 or x > 1.0 + 1e-12:
            continue
        if best is None or abs(x) < abs(best) - 1e-15 or (abs(abs(x) - abs(best)) <= 1e-15 and x > best):
            best = x
    if best is None:
        raise ValueError(f"no admissible detuning for phi={phi}, multiplicity={p}")
    return best * omega_ge


def _aux_map(detuning: float, omega_ge: float, multiplicity: int) -> tuple[complex, ...]:
    """Detuned auxiliary drive completing whole generalized Rabi cycles.

    Acts on {|target ground, 1 phonon>, |aux excited, 0 phonons>} with
    hamiltonian [[0, w_c/2], [w_c/2, -detuning]], w_c^2 = omega_ge^2 -
    detuning^2, for a duration of ``multiplicity`` full cycles
    (2 pi p / omega_ge), as (m00, m01, m10, m11). Populations return where
    they started and both states gain the phase p * pi * (1 + detuning / omega_ge).
    """
    if not abs(detuning) <= omega_ge:
        raise ValueError(f"|detuning|={abs(detuning)} exceeds omega_ge={omega_ge}; no real coupling exists")
    coupling = math.sqrt(max(omega_ge**2 - detuning**2, 0.0))
    duration = 2.0 * math.pi * check_multiplicity(multiplicity, omega_ge) / omega_ge
    half = omega_ge * duration / 2.0  # = pi * p
    c, s = math.cos(half), math.sin(half)
    # exp(-iHT) on the ordered pair (|g,1>, |e,0>), split into the trace part
    # exp(+i detuning T / 2) and the remaining SU(2) rotation.
    tilt, mix = 1j * s * detuning / omega_ge, -1j * s * coupling / omega_ge
    trace = cmath.exp(0.5j * detuning * duration)
    return trace * (c - tilt), trace * mix, trace * mix, trace * (c + tilt)


@dataclass(frozen=True, eq=False)
class PulseSchedule:
    """A compiled pulse schedule: read-only columns checked once, vectorized, one entry per pulse.

    ``kinds`` indexes PULSE_KINDS, ``levels`` holds the sideband's level (-1 for none). A slice
    gives a schedule; a hand-written schedule is built from its five columns.
    """

    kinds: np.ndarray
    times: np.ndarray
    levels: np.ndarray
    detunings: np.ndarray
    multiplicities: np.ndarray

    def __post_init__(self) -> None:
        for name, given in vars(self).items():
            column, integer = np.asarray(given), name not in ("times", "detunings")
            if integer and column.size:
                if column.dtype.kind not in "iu":  # Python ints past int64 come as objects, or as floats
                    exact = np.asarray(given, dtype=object)
                    if not all(isinstance(x, int) and not isinstance(x, bool) for x in exact.flat):  # bools too
                        raise ValueError(f"{name} must be ints, got dtype {column.dtype}")
                    column = exact
                if not np.can_cast(column.dtype, np.int64):  # the cast would wrap a uint64 or raise on a larger int
                    _require_all((column >= -2**63) & (column < 2**63), f"{name} must be ints within int64", column)
            column = column.astype(np.int64 if integer else np.float64)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        kinds, times, levels, detunings, multiplicities = vars(self).values()
        if times.ndim != 1 or len({column.shape for column in vars(self).values()}) != 1:
            raise ValueError("schedule columns must be 1-D and of one length")
        _require_all((kinds >= 0) & (kinds < len(PULSE_KINDS)), f"kinds must index {PULSE_KINDS}", kinds)
        _require_all(np.isfinite(times), "times must be finite", times)
        _require_all(np.isfinite(detunings), "detunings must be finite", detunings)
        # a kind fires only its own fields, so a value in a field it never reads is refused
        _require_all(np.where(kinds == _SIDEBAND, levels >= 0, levels == -1), "levels must be >= 0 on sidebands "
                     "and -1 off them", levels)
        _require_all((kinds == _AUX) | (detunings == 0), "detunings must be 0 off auxiliary drives", detunings)
        _require_all(np.where(kinds == _AUX, (multiplicities >= 1) & (multiplicities <= _MAX_MULTIPLICITY),
                              multiplicities == 1), f"multiplicities must be from 1 to 2**32 = {_MAX_MULTIPLICITY} "
                     "on auxiliary drives and 1 off them", multiplicities)

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, pulses: slice) -> "PulseSchedule":
        return PulseSchedule(*(column[pulses] for column in vars(self).values()))


def execute_schedule(state: JointIonState, steps: PulseSchedule, params: TrapParams,
                     spectrum: RydbergSpectrum) -> JointIonState:
    """Apply the steps in order at their nominal times, evolving freely in between.

    Every step fires in place on one frame copy (module notes); ``state.amps`` is never written.
    The state comes out at the last pulse's time, or at ``state.t`` for an empty schedule.
    """
    maps, t, frame = _pulse_maps(steps, state.t, params, spectrum)
    buf = _to_frame(state, spectrum)
    _fire_in_place(buf, maps)
    return JointIonState(state.d, _from_frame(buf, frame.conj()), t)


def _pulse_maps(steps: PulseSchedule, t: float, params: TrapParams,
                spectrum: RydbergSpectrum) -> tuple[np.ndarray, float, np.ndarray]:
    """(maps, time after the last step, frame phases there) for a frame buffer at time t.

    Row i of the (n, 6 + 2d) maps holds pulse i: kind code, level, its 2x2 map (a sideband's with
    its level's frame phase off the diagonal), the core packet c in the frame and conj(c). Every
    step is checked here, before any fires.
    """
    if not math.isfinite(t):
        raise ValueError(f"a schedule needs a finite start time, got {t}")
    d, kinds, times = spectrum.d, steps.kinds, steps.times
    clock = np.concatenate(([t], times))  # the state time before each step and after the last
    _require_all(times >= clock[:-1] - 1e-9, "schedules run forward: no step before the state time", times)
    _require_all(np.abs(clock - t) < _MAX_FREE_TIME, "frame phases w_j * tau split exactly only for pulse "
                 "times within ~1.3e300 of the schedule's start", clock)
    frames = spectrum._free_phases(t - clock)  # exp(+i w_j tau)
    sideband, aux = kinds == _SIDEBAND, kinds == _AUX
    level = steps.levels[sideband]
    _require_all(level < d, f"level digit must be in [0, {d})", level)
    maps = np.empty((len(times), 6 + 2 * d), dtype=np.complex128)
    maps[:, 0], maps[:, 1] = kinds, steps.levels
    maps[:, 2:6] = pi_map = resonant_pulse_map(math.pi).ravel()  # exp[-i (pi/2) sigma_x]; sidebands fire its inverse
    p = frames[1:][sideband, level]
    maps[sideband, 3], maps[sideband, 4] = -pi_map[1] * p, -pi_map[2] * p.conj()
    aux_rows = list(zip(steps.detunings[aux].tolist(), steps.multiplicities[aux].tolist()))
    aux_maps = {row: _aux_map(row[0], params.omega_ge, row[1]) for row in dict.fromkeys(aux_rows)}  # one per value
    maps[aux, 2:6] = np.reshape([aux_maps[row] for row in aux_rows], (-1, 4))
    maps[:, 6 : 6 + d] = _packet_matrices(d)[0][:, 0] * frames[1:]
    maps[:, 6 + d :] = maps[:, 6 : 6 + d].conj()
    return maps, float(clock[-1]), frames[-1]


def _fire_in_place(buf: np.ndarray, maps: np.ndarray) -> None:
    """Fire ``_pulse_maps`` entries in order on a C-contiguous frame buffer (d+2, ..., d+1, 2).

    Swap: the pi pulse on (a = c^dag e~, target ground), then the rank-one
    update e~ += c (a' - a) in row blocks of ``_UPDATE_BYTES``. Sideband on
    level j: {|j, 0 phonons>, |ground, 1 phonon>} of the control ion,
    ContractError if any state holds more than EPS_STATE in |j, 1 phonon>.
    Auxiliary drive: {|target ground, 1 phonon>, |aux excited, 0 phonons>},
    ContractError likewise for |aux excited, 1 phonon>.
    """
    d = buf.shape[0] - 2
    rows = buf.reshape(d + 2, -1)
    levels = rows[:d]
    block = max(1, _UPDATE_BYTES // max(levels[0].nbytes, 1))
    kinds, js = maps[:, :2].real.astype(int).T.tolist()
    for kind, j, m, core, core_conj in zip(kinds, js, maps[:, 2:6], maps[:, 6 : d + 6, None], maps[:, d + 6 :]):
        if kind == _SWAP:
            a = core_conj @ levels
            delta, rows[d] = _rotate(m, a, rows[d])
            delta -= a
            for lo in range(0, d, block):
                levels[lo : lo + block] += core[lo : lo + block] * delta
        elif kind == _SIDEBAND:
            _require_within_cap(buf[..., j, 1], 0, f"|level {j}, 1 phonon>", "a sideband pulse")
            buf[..., j, 0], buf[..., d, 1] = _rotate(m, buf[..., j, 0], buf[..., d, 1])
        else:
            _require_within_cap(buf[d + 1][..., 1], -1, "|aux excited, 1 phonon>", "the auxiliary drive")
            buf[d][..., 1], buf[d + 1][..., 0] = _rotate(m, buf[d][..., 1], buf[d + 1][..., 0])


def _plan_run_times(t_min: float, packet_slot: int, d: int, t_kepler: float, kepler_periods: float,
                    t_ref: float) -> tuple[float, float, float, float, float]:
    """Times of the five pulses of one run starting no earlier than t_min.

    The first swap must fire when the addressed packet reaches the inner
    turning point: (t1 - t_ref) == ((-k) mod d) * t_kepler/d modulo a whole
    period. The sideband pair is centered in the run and separated by one
    full period (one slot time for single-period runs) so the park-window
    phase deficits telescope away.
    """
    slot_time = t_kepler / d
    align = ((-packet_slot) % d) * slot_time
    base = t_ref + align
    n = math.ceil((t_min - base) / t_kepler - 1e-12)
    t1 = base + n * t_kepler
    total = kepler_periods * t_kepler
    gap = t_kepler if kepler_periods >= 2 else slot_time
    t2 = t1 + (total - gap) / 2.0
    t4 = t2 + gap
    t3 = (t2 + t4) / 2.0
    t5 = t1 + total
    return t1, t2, t3, t4, t5


def _run_schedule(runs: list[tuple[int, int, float]], d: int, params: TrapParams, spectrum: RydbergSpectrum,
                  t_min: float, multiplicity: int, kepler_periods: float, t_ref: float) -> PulseSchedule:
    """The five pulses of each run (level, packet, phase), each run after the last, aligned to t_ref."""
    check_kepler_periods(kepler_periods)
    if not (math.isfinite(t_min) and math.isfinite(t_ref)):
        raise ValueError(f"t_min and t_ref must be finite, got {t_min} and {t_ref}")
    if kepler_periods != int(kepler_periods):
        warnings.warn(f"kepler_periods={kepler_periods} is not an integer; the closing swap will fire with "
                      "the packet away from the turning point", stacklevel=3)
    p = check_multiplicity(multiplicity, params.omega_ge)
    times = [t_min]
    for _, packet_slot, _ in runs:
        times += _plan_run_times(times[-1], packet_slot, d, spectrum.t_kepler, kepler_periods, t_ref)
    del times[0]
    window, aux_time = np.min(np.subtract(times[3::5], times[1::5])), 2.0 * math.pi * p / params.omega_ge
    if aux_time > window:
        warnings.warn(f"auxiliary drive lasts {aux_time:.3g}, longer than the {window:.3g} window between the "
                      "sideband pulses; treating it as instantaneous is a stretch", stacklevel=3)
    phis = [float(phi) for _, _, phi in runs]
    solved = {phi: solve_aux_detuning(phi, params.omega_ge, p) for phi in dict.fromkeys(phis)}  # one per phase
    detunings = [(0.0, 0.0, solved[phi], 0.0, 0.0) for phi in phis]
    return PulseSchedule(np.tile((_SWAP, _SIDEBAND, _AUX, _SIDEBAND, _SWAP), len(runs)), times,
                         np.ravel([(-1, j, -1, j, -1) for j, _, _ in runs]), np.ravel(detunings),
                         np.tile((1, 1, p, 1, 1), len(runs)))


def hybrid_phase_targets(d: int, span: int) -> np.ndarray:
    """Target phases phi[j, k] = -2 pi j_s k_s / d**(span+1) on signed offsets.

    ``span`` is the distance m - l between the coupled qudits; indices are
    digits and j_s, k_s their signed symmetric-window images.
    """
    if span < 1:
        raise ValueError(f"span must be at least 1, got {span}")
    offsets = level_offsets(d).astype(np.float64)
    return -2.0 * math.pi * np.outer(offsets, offsets) / float(d) ** (span + 1)


def build_phase_gate_schedule(l: int, m: int, shape: RegisterShape, params: TrapParams,
                              spectrum: RydbergSpectrum, t0: float = 0.0, multiplicity: int = 1,
                              kepler_periods: float = 2) -> PulseSchedule:
    """All d*d runs of the composed phase gate between qudits l < m, in order.

    Run (j, k) is steps[5 * (j*d + k) : 5 * (j*d + k) + 5]; each run starts
    no earlier than the previous one ends, aligned to ``t0``.
    """
    check_gate_qudits(l, m, shape.q)
    if shape.d != spectrum.d:
        raise ValueError(f"register has d={shape.d} but spectrum has d={spectrum.d}")
    runs = [(j, k, phase) for (j, k), phase in np.ndenumerate(hybrid_phase_targets(shape.d, m - l))]
    return _run_schedule(runs, shape.d, params, spectrum, t0, multiplicity, kepler_periods, t0)


@dataclass(frozen=True)
class FidelityReport:
    """Outcome of simulating the composed phase gate against its target."""

    d: int
    control_index: int
    target_index: int
    fidelity: float
    global_phase: float
    max_branch_phase_error: float
    per_branch_phase_error: list[float] = field(repr=False)
    trap_residual_max: float = 0.0
    total_duration: float = 0.0
    multiplicity: int = 1
    kepler_periods: float = 2
    truncation: str = "kepler"


def _realized_process(steps: PulseSchedule, params: TrapParams,
                      spectrum: RydbergSpectrum) -> tuple[np.ndarray, float, float]:
    """(process matrix, worst trap population after any run, total duration) of a gate schedule.

    Column j0*d + k0 of the (d*d, d*d) matrix is the (level, packet) block that
    hybrid basis state (j0, k0) ends in, evolved back to t = 0.
    """
    d = spectrum.d
    maps, t, _ = _pulse_maps(steps, 0.0, params, spectrum)
    u, u_dag = _packet_matrices(d)
    # stack index j0*d + k0 holds basis state (j0, k0): packet k0 is the level column U[:, k0]
    col = np.arange(d * d)
    buf = np.zeros((d + 2, d * d, d + 1, 2), dtype=np.complex128)
    buf[:d, col, col // d, 0] = u[:, col % d]
    residual_max = 0.0
    for start in range(0, len(maps), 5):
        _fire_in_place(buf, maps[start : start + 5])
        trapped = np.abs(buf[..., 1])  # [target, state, control]
        trapped *= trapped
        residual_max = max(residual_max, float(trapped.sum(axis=0).sum(axis=-1).max()))
    packets = u_dag @ buf[:d, :, :d, 0].reshape(d, -1)  # [packet k, column, level j]
    return packets.reshape(d, d * d, d).transpose(2, 0, 1).reshape(d * d, d * d), residual_max, t


def verify_hybrid_gate(shape: RegisterShape, l: int, m: int, params: TrapParams, spectrum: RydbergSpectrum,
                       multiplicity: int = 1, kepler_periods: float = 2) -> FidelityReport:
    """Simulate the composed d*d-run gate on every hybrid basis state.

    All d*d basis states (control level j0, target packet k0) go through the
    full pulse schedule together as one (d*d, d+1, d+2, 2) stack in the
    interaction frame, whose final state is the state with its free-evolution
    phases removed; the resulting matrix is compared to the diagonal target
    exp(i phi[j, k]). The schedule is the one :func:`build_phase_gate_schedule`
    returns, fired one five-pulse run at a time on one buffer. Reports the process
    fidelity |Tr(target^dag M)|^2 / d^4 (global-phase invariant), per-branch
    phase errors after removing the common phase, and the worst trap
    population left behind by any single run on any single basis state.
    Raises ``ValueError`` before allocating when the stack's
    d*d*(d+1)*(d+2)*2 amplitudes exceed the register cap.

    On ideal runs ``trap_residual_max`` is 4 d^2 cos^2(pi/2) (6.0e-32 at d=2): the rounding
    of cos(pi/2) = 6.1e-17 in the pi pulses, not physics, for every truncation and period count.
    """
    d = shape.d
    check_amplitude_count((d * d, d + 1, d + 2, 2),
                          f"stack of {d * d} hybrid basis states of shape ({d + 1}, {d + 2}, 2)")
    steps = build_phase_gate_schedule(l, m, shape, params, spectrum, multiplicity=multiplicity,
                                      kepler_periods=kepler_periods)
    matrix, residual_max, t = _realized_process(steps, params, spectrum)
    target_diag = np.exp(1j * hybrid_phase_targets(d, m - l).ravel())
    overlap = np.vdot(target_diag, np.diag(matrix))
    fidelity = float(abs(overlap) ** 2 / d**4)
    global_phase = float(np.angle(overlap)) if abs(overlap) > 0 else 0.0
    branch_err = np.angle(np.diag(matrix) * np.conj(target_diag) * np.exp(-1j * global_phase))
    branch_err = np.abs(branch_err)
    return FidelityReport(
        d=d,
        control_index=l,
        target_index=m,
        fidelity=fidelity,
        global_phase=global_phase,
        max_branch_phase_error=float(branch_err.max()),
        per_branch_phase_error=[float(x) for x in branch_err],
        trap_residual_max=residual_max,
        total_duration=t,
        multiplicity=multiplicity,
        kepler_periods=kepler_periods,
        truncation=spectrum.truncation,
    )
