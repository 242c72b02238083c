"""The benchmark's three workloads and the oracles that check them.

Each workload makes one layer of the package do nearly all of the work, and
splits that work into two job kinds that use the layer in two different ways:

* ``fft``: the gate layer. *transform* pushes one large vector through
  ``apply_sequence``; *verify* pushes a (batch, N) stack of basis columns
  through ``verify_fft_equivalence`` and also proves the phase identity with
  ``accumulated_phase_turns``.
* ``pulse``: the pulse layer. *sweep* runs ``selectivity_sweep`` over eight
  durations; *single* makes one ``integrate_two_level`` and one
  ``integrate_full`` call per random atom state, plus the wave-packet calls of
  the CLI's wavepacket mode.
* ``trap``: the ion-trap layer. *verify* runs ``verify_hybrid_gate`` over the
  whole hybrid basis; *single* builds and executes one phase-gate schedule on
  one random hybrid state.

In each pair the first kind is the one a batching or vectorizing change would
target and the second the one it would bypass, so the runner reports them as
the ``batched`` and ``single`` rates.

Every input comes from the seed. The oracles are independent of the code
they check (numpy's FFT, exact rationals, closed-form and exact propagators)
or are values that ``record_reference.py`` stored in ``reference.json``.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from harness import Check, Job, flag, interleave
from quditfft.constants import EPS_STATE
from quditfft.gates import (
    accumulated_phase_turns,
    apply_sequence,
    build_fft_sequence,
    direct_dft,
    verify_fft_equivalence,
)
from quditfft.iontrap import (
    JointIonState,
    TrapParams,
    build_phase_gate_schedule,
    execute_schedule,
    free_evolve_joint,
    hybrid_phase_targets,
    verify_hybrid_gate,
)
from quditfft.pulses import (
    MIN_STEPS,
    STEPS_PER_CYCLE,
    AtomState,
    PulseProfile,
    RabiCouplings,
    integrate_full,
    integrate_two_level,
    selectivity_sweep,
)
from quditfft.register import QuditState, RegisterShape, dit_reversal_permutation
from quditfft.wavepacket import (
    ENERGY,
    KEPLER,
    REVIVAL,
    WAVEPACKET,
    AmplitudeVector,
    RydbergSpectrum,
    change_basis,
    dispersion_fidelity,
    free_evolve,
)

WORKLOADS = ("fft", "pulse", "trap")
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Operating point of the pulse and trap workloads: the CLI's default n̄ and
# the revival time of the frozen trap regression in the test suite.
N_BAR = 5
T_KEPLER = 2.0 * math.pi * N_BAR**3
T_REV = 20.0 * T_KEPLER

# Tolerances. The first four are the CLI's pass thresholds (1e-10 is also the
# default of verify_fft_equivalence); the last is the bound of the frozen
# leakage regression in tests/test_pulses.py.
AMP_TOL = 1e-10  # transform output vs numpy / direct DFT; trap residual
PULSE_TOL = 1e-8  # RK4 pulse maps vs closed-form or exact propagators
WAVEPACKET_TOL = 1e-12  # packet cycling, basis change, dispersion closed form
FIDELITY_TOL = 1e-9  # |1 - F| of Kepler trap runs; recorded revival fidelities
LEAKAGE_RTOL = 1e-7  # recorded leakages

DFT_CHECK_LIMIT = 4096  # transforms this small are also checked against direct_dft
IFFT_RATIO_MIN_AMPS = 2**19  # transforms this large report their ratio to np.fft.ifft

FFT_SIZES = {
    # One seeded input state per (d, q) entry. 2**16 amplitudes fit the 2 MiB
    # L2 and 2**20 do not; large and small shapes alternate (see interleave).
    "full": {
        "transform": [(2, 20), (2, 16), (4, 8), (3, 12), (2, 16), (4, 8), (4, 10),
                      (2, 16), (4, 8), (16, 5), (2, 16), (4, 8), (3, 7)],
        # (d, q, sampled columns or None for exhaustive)
        "verify": [(2, 10, None), (2, 14, 64), (4, 5, None), (4, 7, 64), (32, 2, None)],
        "phase_shape": (2, 20),
        "pairs": 1000,
    },
    "tiny": {
        "transform": [(2, 8), (3, 5)],
        "verify": [(2, 4, None), (2, 13, 4)],
        "phase_shape": (2, 10),
        "pairs": 20,
    },
}

PULSE_SIZES = {
    "full": {
        "configs": [(d, s, KEPLER) for d in (3, 5, 8) for s in ("square", "gaussian")]
        + [(5, "square", REVIVAL)],
        "states": 4,
        "wavepacket_ds": (3, 5, 8),
    },
    "tiny": {
        "configs": [(3, "square", KEPLER), (3, "gaussian", KEPLER)],
        "states": 1,
        "wavepacket_ds": (3,),
    },
}
SWEEP_POINTS = 8  # the CLI's durations, T_K down to T_K / (4d)
SINGLE_PULSE_RATIO = 0.05  # the CLI's default pulse duration, in Kepler periods
DISPERSION_FRACTIONS = (0.0, 0.1, 0.25, 0.5, 1.0, 2.0)  # the CLI's dt / t_rev grid

TRAP_VARIANTS = ((KEPLER, 2), (KEPLER, 1), (REVIVAL, 2))  # (truncation, Kepler periods per run)
TRAP_SIZES = {
    "full": {"verify_ds": (2, 3, 4, 5, 6), "single_ds": (3, 4, 5, 6), "states": 12},
    "tiny": {"verify_ds": (2, 3), "single_ds": (3,), "states": 1},
}
TRAP_PARAMS = TrapParams()


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def pulse_key(d: int, shape: str, truncation: str) -> str:
    return f"d{d}-{shape}-{truncation}"


def spectrum(d: int, truncation: str) -> RydbergSpectrum:
    return RydbergSpectrum(N_BAR, d, t_rev=T_REV, truncation=truncation)


def sweep_durations(d: int) -> np.ndarray:
    return np.geomspace(T_KEPLER, T_KEPLER / (4.0 * d), num=SWEEP_POINTS)


def single_pulse(shape: str) -> PulseProfile:
    return PulseProfile(SINGLE_PULSE_RATIO * T_KEPLER, math.pi, shape=shape)


def _random_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _max_abs(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


# ---------------------------------------------------------------- oracles


def digit_reverse(c: int, d: int, q: int) -> int:
    r = 0
    for _ in range(q):
        c, digit = divmod(c, d)
        r = r * d + digit
    return r


def _signed_offsets(d: int) -> np.ndarray:
    j = np.arange(d)
    return np.where(j <= d // 2, j, j - d).astype(np.float64)


def band_frequencies(d: int, truncation: str) -> np.ndarray:
    """The Taylor model of the level frequencies, restated for the oracles."""
    j = _signed_offsets(d)
    omega = j / T_KEPLER
    if truncation == REVIVAL:
        omega = omega - j**2 / (2.0 * T_REV)
    return 2.0 * math.pi * omega


def _packet_matrix(d: int) -> np.ndarray:
    """F with energy amplitudes = F @ packet amplitudes (the orthonormal DFT)."""
    return np.fft.fft(np.eye(d), norm="ortho", axis=0)


def square_propagator(d: int, truncation: str, pulse: PulseProfile) -> np.ndarray:
    """Exact map of a resonant square pulse on (packet slots..., ground).

    With a constant drive the full-band equations have the time-independent
    Hermitian generator H = diag(dw, 0) - (kappa/2) (w e_g^T + e_g w^T), so
    the propagator is exp(-i H T), taken from one eigendecomposition.
    """
    kappa = pulse.area / pulse.duration
    weights = np.full(d, 1.0 / math.sqrt(d))  # uniform couplings
    h = np.zeros((d + 1, d + 1))
    h[:d, :d] = np.diag(band_frequencies(d, truncation))
    h[:d, d] = h[d, :d] = -0.5 * kappa * weights
    vals, vecs = np.linalg.eigh(h)
    energy_map = (vecs * np.exp(-1j * vals * pulse.duration)) @ vecs.conj().T
    f = np.eye(d + 1, dtype=np.complex128)
    f[:d, :d] = _packet_matrix(d)
    return f.conj().T @ energy_map @ f


def two_level_map(area: float) -> np.ndarray:
    """Closed-form resonant map on (ground, core packet), exact for any envelope."""
    c, s = math.cos(area / 2.0), math.sin(area / 2.0)
    return np.array([[c, 1j * s], [1j * s, c]])


def dispersion_closed_form(packet: np.ndarray, dt: float) -> float:
    """|<psi_kepler(dt)|psi_revival(dt)>|^2: the quadratic phases weighted by level populations."""
    p = np.abs(_packet_matrix(len(packet)) @ packet) ** 2
    p = p / p.sum()
    j = _signed_offsets(len(packet))
    return float(abs(np.sum(p * np.exp(1j * 2.0 * math.pi * j**2 * dt / (2.0 * T_REV)))) ** 2)


def rk4_steps(pulse: PulseProfile, max_freq: float) -> int:
    """Step count of the fixed-step integrator, by the rule in pulses.py."""
    cycles = pulse.duration * max_freq / (2.0 * math.pi) + abs(pulse.area) / (2.0 * math.pi)
    return max(MIN_STEPS, math.ceil(STEPS_PER_CYCLE * max(cycles, 1.0)))


# ---------------------------------------------------------------- fft


def _transform_job(shape: RegisterShape, x: np.ndarray) -> Job:
    state = QuditState(shape, x)
    n = shape.n_amps
    gates = shape.q * (shape.q + 1) // 2
    dft: list[np.ndarray] = []

    def run(tr):
        with tr.span("gates.build_fft_sequence"):
            seq = build_fft_sequence(shape)
        with tr.span("gates.apply_sequence"):
            out = apply_sequence(state, seq)
        with tr.span("register.dit_reversal_permutation"):
            perm = dit_reversal_permutation(shape)
        return out.amps[perm]

    def check(got):
        checks = [Check("gates.transform_vs_ifft", _max_abs(got, np.fft.ifft(x, norm="ortho")), AMP_TOL)]
        if n <= DFT_CHECK_LIMIT:
            if not dft:
                dft.append(direct_dft(state, method="sum").amps)
            checks.append(Check("gates.transform_vs_direct_dft", _max_abs(got, dft[0]), AMP_TOL))
        return checks

    large = n >= IFFT_RATIO_MIN_AMPS
    return Job(
        "transform",
        f"transform d={shape.d} q={shape.q}",
        run,
        check,
        rate="single",
        items=n,
        counts={"gates.apply_sequence.gate_apps": gates, "gates.apply_sequence.amp_gates": n * gates},
        tags={"d": shape.d},
        reference=(lambda: np.fft.ifft(x, norm="ortho")) if large else None,
    )


def _verify_job(shape: RegisterShape, seed: int | None, n_samples: int | None) -> Job:
    """Exhaustive when ``seed`` is None, else ``n_samples`` seeded columns."""
    exhaustive = seed is None
    columns = shape.n_amps if exhaustive else n_samples
    gates = shape.q * (shape.q + 1) // 2

    def run(tr):
        with tr.span("gates.verify_fft_equivalence"):
            if exhaustive:
                return verify_fft_equivalence(shape)
            return verify_fft_equivalence(shape, seed=seed, n_samples=n_samples)

    def check(rep):
        name = "gates.verify_fft_equivalence"
        return [
            flag(f"{name}.passed", rep.passed),
            flag(f"{name}.as_written", rep.order == "as-written"),
            flag(f"{name}.gate_count", rep.gate_count == gates),
            flag(f"{name}.columns", rep.n_inputs == columns and rep.exhaustive == exhaustive),
            Check(f"{name}.err_over_tol", rep.max_entry_err / AMP_TOL, 1.0),
        ]

    mode = "exhaustive" if exhaustive else f"{n_samples} sampled"
    return Job(
        "verify",
        f"verify d={shape.d} q={shape.q} {mode}",
        run,
        check,
        rate="batched",
        items=columns,
        counts={"gates.verify_fft_equivalence.columns": columns},
        tags={"d": shape.d},
    )


def _phase_turns_job(shape: RegisterShape, pairs: list[tuple[int, int]]) -> Job:
    d, q, n = shape.d, shape.q, shape.n_amps

    def run(tr):
        turns = []
        for a, b in pairs:
            with tr.span("gates.accumulated_phase_turns"):
                turns.append(accumulated_phase_turns(shape, a, b))
        return turns

    def check(turns):
        want = [Fraction(a * digit_reverse(b, d, q) % n, n) for a, b in pairs]
        wrong = sum(got != w for got, w in zip(turns, want)) + abs(len(turns) - len(want))
        return [Check("gates.accumulated_phase_turns.exact", float(wrong), 0.0)]

    return Job(
        "verify",
        f"phase turns d={d} q={q} x{len(pairs)}",
        run,
        check,
        counts={"gates.accumulated_phase_turns.pairs": len(pairs)},
    )


def build_fft(seed: int, size: str) -> list[Job]:
    cfg = FFT_SIZES[size]
    rng = np.random.default_rng([seed, 0])
    jobs = []
    for d, q in cfg["transform"]:
        shape = RegisterShape(d, q)
        jobs.append(_transform_job(shape, _random_unit(rng, shape.n_amps)))
    verify = []
    for d, q, samples in cfg["verify"]:
        seed_or_none = None if samples is None else int(rng.integers(2**31))
        verify.append(_verify_job(RegisterShape(d, q), seed_or_none, samples))
    shape = RegisterShape(*cfg["phase_shape"])
    pairs = rng.integers(0, shape.n_amps, size=(cfg["pairs"], 2))
    verify.insert(len(verify) // 2, _phase_turns_job(shape, [(int(a), int(b)) for a, b in pairs]))
    return jobs + verify


# ---------------------------------------------------------------- pulse


def _sweep_job(d: int, shape: str, truncation: str, reference: dict) -> Job:
    spec = spectrum(d, truncation)
    couplings = RabiCouplings.uniform(d)
    durations = sweep_durations(d)
    want = np.array(reference["leakage"][pulse_key(d, shape, truncation)])
    max_freq = float(np.max(np.abs(band_frequencies(d, truncation))))
    steps = sum(rk4_steps(PulseProfile(float(t), math.pi, shape=shape), max_freq) for t in durations)

    def run(tr):
        with tr.span("pulses.selectivity_sweep"):
            return selectivity_sweep(spec, couplings, durations, area=math.pi, shape=shape)

    def check(leak):
        return [Check("pulses.leakage_rel_dev", float(np.max(np.abs(leak - want) / want)), LEAKAGE_RTOL)]

    return Job(
        "sweep",
        f"sweep {pulse_key(d, shape, truncation)}",
        run,
        check,
        rate="batched",
        items=SWEEP_POINTS,
        counts={"pulses.selectivity_sweep.points": SWEEP_POINTS, "pulses.rk4_steps": steps},
        tags={"d": d},
    )


def _pulse_job(d: int, shape: str, truncation: str, y0: np.ndarray, full_map: np.ndarray) -> Job:
    spec = spectrum(d, truncation)
    couplings = RabiCouplings.uniform(d)
    pulse = single_pulse(shape)
    state = AtomState(y0[d], AmplitudeVector(WAVEPACKET, y0[:d]))
    two_want = y0.copy()
    two_want[[d, 0]] = two_level_map(pulse.area) @ y0[[d, 0]]
    max_freq = float(np.max(np.abs(band_frequencies(d, truncation))))
    steps = rk4_steps(pulse, 0.0) + rk4_steps(pulse, max_freq)

    def run(tr):
        with tr.span("pulses.integrate_two_level"):
            two = integrate_two_level(state, pulse, couplings)
        with tr.span("pulses.integrate_full"):
            full = integrate_full(state, pulse, couplings, spec)
        return two, full

    def check(out):
        two, full = out
        two_got = np.append(two.wp.amps, two.b_g)
        full_got = np.append(full.wp.amps, full.b_g)
        norm_dev = max(abs(np.linalg.norm(two_got) - 1.0), abs(np.linalg.norm(full_got) - 1.0))
        return [
            Check("pulses.two_level_err", _max_abs(two_got, two_want), PULSE_TOL),
            Check("pulses.full_band_err", _max_abs(full_got, full_map @ y0), PULSE_TOL),
            Check("pulses.norm_dev", norm_dev, EPS_STATE),
        ]

    return Job(
        "single",
        f"integrate {pulse_key(d, shape, truncation)}",
        run,
        check,
        rate="single",
        items=2,
        counts={"pulses.rk4_steps": steps},
        tags={"d": d},
    )


def _wavepacket_job(d: int, packet: np.ndarray, energy: np.ndarray, reference: dict) -> Job:
    kepler = spectrum(d, KEPLER)
    revival = spectrum(d, REVIVAL)
    slot_time = T_KEPLER / d
    packet_v = AmplitudeVector(WAVEPACKET, packet)
    energy_v = AmplitudeVector(ENERGY, energy)
    core = AmplitudeVector(WAVEPACKET, np.eye(d)[0])
    core_want = np.array(reference["dispersion_core"][f"d{d}"])
    random_want = np.array([dispersion_closed_form(packet, f * T_REV) for f in DISPERSION_FRACTIONS])

    def run(tr):
        cycled = []
        for s in range(2 * d + 1):
            with tr.span("wavepacket.free_evolve"):
                cycled.append(free_evolve(packet_v, kepler, s * slot_time))
        with tr.span("wavepacket.change_basis"):
            to_packets = change_basis(energy_v, WAVEPACKET)
        with tr.span("wavepacket.change_basis"):
            back = change_basis(to_packets, ENERGY)
        core_fid, random_fid = [], []
        for f in DISPERSION_FRACTIONS:
            with tr.span("wavepacket.dispersion_fidelity"):
                core_fid.append(dispersion_fidelity(core, revival, f * T_REV))
            with tr.span("wavepacket.dispersion_fidelity"):
                random_fid.append(dispersion_fidelity(packet_v, revival, f * T_REV))
        return {
            "cycled": cycled,
            "basis": [to_packets, back],
            "dispersion_core": np.array(core_fid),
            "dispersion_random": np.array(random_fid),
        }

    def check(out):
        cycling = max(_max_abs(v.amps, np.roll(packet, s)) for s, v in enumerate(out["cycled"]))
        to_packets, back = out["basis"]
        basis = max(
            _max_abs(to_packets.amps, np.fft.ifft(energy, norm="ortho")), _max_abs(back.amps, energy)
        )
        return [
            flag("wavepacket.free_evolve.steps", len(out["cycled"]) == 2 * d + 1),
            Check("wavepacket.cycling_err", cycling, WAVEPACKET_TOL),
            Check("wavepacket.change_basis_err", basis, WAVEPACKET_TOL),
            Check("wavepacket.dispersion_core_dev", _max_abs(out["dispersion_core"], core_want), FIDELITY_TOL),
            Check("wavepacket.dispersion_err", _max_abs(out["dispersion_random"], random_want), WAVEPACKET_TOL),
        ]

    return Job("single", f"wavepacket d={d}", run, check, tags={"d": d})


def pulse_map_oracle(d: int, shape: str, truncation: str, reference: dict) -> np.ndarray:
    """Exact propagator for square pulses; the recorded map otherwise."""
    if shape == "square":
        return square_propagator(d, truncation, single_pulse(shape))
    re, im = reference["gaussian_map"][pulse_key(d, shape, truncation)]
    return np.array(re) + 1j * np.array(im)


def build_pulse(seed: int, size: str) -> list[Job]:
    cfg = PULSE_SIZES[size]
    reference = load_reference()
    rng = np.random.default_rng([seed, 1])
    jobs = [_sweep_job(d, s, t, reference) for d, s, t in cfg["configs"]]
    maps = [pulse_map_oracle(d, s, t, reference) for d, s, t in cfg["configs"]]
    for _ in range(cfg["states"]):
        for (d, s, t), full_map in zip(cfg["configs"], maps):
            jobs.append(_pulse_job(d, s, t, _random_unit(rng, d + 1), full_map))
    for d in cfg["wavepacket_ds"]:
        jobs.append(_wavepacket_job(d, _random_unit(rng, d), _random_unit(rng, d), reference))
    return jobs


# ---------------------------------------------------------------- trap


def _trap_verify_job(d: int, truncation: str, periods: int, reference: dict) -> Job:
    shape = RegisterShape(d, 2)
    spec = spectrum(d, truncation)
    name = "iontrap.verify_hybrid_gate"

    def run(tr):
        with tr.span(name):
            return verify_hybrid_gate(shape, 0, 1, TRAP_PARAMS, spec, kepler_periods=periods)

    def check(rep):
        if truncation == KEPLER:
            return [
                Check(f"{name}.fidelity_gap", abs(1.0 - rep.fidelity), FIDELITY_TOL),
                Check(f"{name}.trap_residual_max", rep.trap_residual_max, AMP_TOL),
            ]
        want = reference["trap_revival_fidelity"][f"d{d}-p{periods}"]
        return [Check("iontrap.revival_fidelity_dev", abs(rep.fidelity - want), FIDELITY_TOL)]

    return Job(
        "verify",
        f"verify d={d} {truncation} {periods}-period",
        run,
        check,
        rate="batched",
        items=d**4,
        counts={f"{name}.pulses": 5 * d**4},
        tags={"d": d},
    )


def _trap_state_job(d: int, block: np.ndarray) -> Job:
    shape = RegisterShape(d, 2)
    spec = spectrum(d, KEPLER)
    amps = np.zeros((d + 1, d + 2, 2), dtype=np.complex128)
    amps[:d, :d, 0] = block
    state = JointIonState(d, amps)
    want = np.zeros_like(amps)
    want[:d, :d, 0] = np.exp(1j * hybrid_phase_targets(d, 1)) * block

    def run(tr):
        with tr.span("iontrap.build_phase_gate_schedule"):
            steps = build_phase_gate_schedule(0, 1, shape, TRAP_PARAMS, spec)
        with tr.span("iontrap.execute_schedule"):
            return execute_schedule(state, steps, TRAP_PARAMS, spec)

    def check(out):
        back = free_evolve_joint(out, spec, -out.t).amps
        overlap = np.vdot(want, back)
        phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
        return [
            Check("iontrap.state_norm_dev", abs(float(np.linalg.norm(out.amps)) - 1.0), EPS_STATE),
            Check("iontrap.state_phase_err", _max_abs(back, phase * want), FIDELITY_TOL),
        ]

    return Job(
        "single",
        f"schedule d={d}",
        run,
        check,
        rate="single",
        items=d * d,
        counts={"iontrap.execute_schedule.pulses": 5 * d * d},
        tags={"d": d},
    )


def build_trap(seed: int, size: str) -> list[Job]:
    cfg = TRAP_SIZES[size]
    reference = load_reference()
    rng = np.random.default_rng([seed, 2])
    jobs = [
        _trap_verify_job(d, truncation, periods, reference)
        for truncation, periods in TRAP_VARIANTS
        for d in cfg["verify_ds"]
    ]
    for _ in range(cfg["states"]):
        jobs += [_trap_state_job(d, _random_unit(rng, d * d).reshape(d, d)) for d in cfg["single_ds"]]
    return jobs


BUILDERS = {"fft": build_fft, "pulse": build_pulse, "trap": build_trap}


def build(workload: str, seed: int, size: str = "full") -> list[Job]:
    """The fixed job list of one workload, with inputs made from ``seed``.

    Each builder lists a kind's jobs cycling over their sizes, and the kinds
    are then interleaved, so that both rates sample the whole round.
    """
    return interleave(BUILDERS[workload](seed, size))
