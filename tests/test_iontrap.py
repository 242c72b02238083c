import dataclasses
import itertools
import math
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quditfft import (
    EPS_STATE,
    AmplitudeVector,
    ContractError,
    JointIonState,
    PulseSchedule,
    RegisterShape,
    RydbergSpectrum,
    TrapParams,
    build_phase_gate_schedule,
    execute_schedule,
    free_evolve,
    free_evolve_joint,
    hybrid_phase_targets,
    level_offsets,
    resonant_pulse_map,
    solve_aux_detuning,
    verify_hybrid_gate,
    wavepacket_basis_matrix,
)
from quditfft import iontrap as iontrap_module
from quditfft.constants import EPS_FIDELITY
from quditfft.iontrap import PULSE_KINDS

COLUMNS = ("kinds", "times", "levels", "detunings", "multiplicities")


def pulses(*rows):
    """A PulseSchedule from rows (kind name, time, level=-1, detuning=0.0, multiplicity=1)."""
    full = [(PULSE_KINDS.index(kind), time, *rest, *(-1, 0.0, 1)[len(rest):]) for kind, time, *rest in rows]
    return PulseSchedule(*(zip(*full) if full else [()] * len(COLUMNS)))


def rows(schedule):
    """The rows (kind name, time, level, detuning, multiplicity) of a schedule, as Python scalars."""
    return [(PULSE_KINDS[kind], *rest) for kind, *rest in zip(*(getattr(schedule, name).tolist() for name in COLUMNS))]


def fire(state, kind, params=TrapParams(), target_level=-1, detuning=0.0, multiplicity=1):
    """One pulse at the state's own time through execute_schedule: dt is 0, so no free evolution runs."""
    step = pulses((kind, state.t, target_level, detuning, multiplicity))
    return execute_schedule(state, step, params, RydbergSpectrum(2, state.d))


def hybrid_basis(d, level_digit, packet_slot, t=0.0):
    """Control ion in band level ``level_digit``, target in packet ``packet_slot``, trap empty."""
    if not (0 <= level_digit < d and 0 <= packet_slot < d):
        raise ValueError(f"level digit and packet slot must be in [0, {d}), got {level_digit} and {packet_slot}")
    amps = np.zeros((d + 1, d + 2, 2), dtype=np.complex128)
    amps[level_digit, packet_slot, 0] = 1.0
    return JointIonState(d, amps, t)


def trap_excited_population(state):
    # C order: the sum runs in one order for any memory layout, so a view gives a fresh state's bits
    return np.sum(np.abs(state.amps[..., 1], order="C") ** 2, axis=(-2, -1))


def aux_population(state):
    return np.sum(np.abs(state.amps[..., :, state.d + 1, :]) ** 2, axis=(-2, -1))


def ground_populations(state):
    """(control ground, target ground) populations."""
    d = state.d
    control, target = state.amps[..., d, :, :], state.amps[..., :, d, :]
    return np.sum(np.abs(control) ** 2, axis=(-2, -1)), np.sum(np.abs(target) ** 2, axis=(-2, -1))


def hybrid_block(state):
    """The (level, slot) amplitudes with both ions in the band and trap empty."""
    return state.amps[..., : state.d, : state.d, 0]


def aux_cycle_phase(detuning, omega_ge, multiplicity=1):
    """The phase p pi (1 + detuning / omega_ge) a completed auxiliary drive imprints on |ground, 1 phonon>."""
    return multiplicity * math.pi * (1.0 + detuning / omega_ge)


def build_run_steps(level_digit, packet_slot, phase, d, params, spectrum, t_min=0.0, multiplicity=1,
                    kepler_periods=2, t_ref=0.0):
    """The five pulses of one conditional-phase run on (level, packet), from the gate's own run builder."""
    if not (0 <= level_digit < d and 0 <= packet_slot < d):
        raise ValueError(f"level digit and packet slot must be in [0, {d}), got {level_digit} and {packet_slot}")
    return iontrap_module._run_schedule([(level_digit, packet_slot, phase)], d, params, spectrum, t_min,
                                        multiplicity, kepler_periods, t_ref)


def one_run(state, level_digit, packet_slot, phase, params, spectrum, kepler_periods=2):
    """One conditional-phase run starting no earlier than the state time."""
    steps = build_run_steps(
        level_digit, packet_slot, phase, state.d, params, spectrum,
        t_min=state.t, kepler_periods=kepler_periods,
    )
    return execute_schedule(state, steps, params, spectrum)


def unbatched_hybrid_gate(d, spectrum, kepler_periods):
    """Reference path: each hybrid basis state runs the d*d runs on its own.

    Returns the process matrix (column j0*d + k0 is the image of basis state
    (j0, k0)) and the worst trap population after any single run.
    """
    phases = hybrid_phase_targets(d, 1)
    params = TrapParams()
    matrix = np.zeros((d * d, d * d), dtype=np.complex128)
    residual_max = 0.0
    for j0 in range(d):
        for k0 in range(d):
            state = hybrid_basis(d, j0, k0)
            for j in range(d):
                for k in range(d):
                    state = one_run(
                        state, j, k, float(phases[j, k]), params, spectrum,
                        kepler_periods=kepler_periods,
                    )
                    residual_max = max(residual_max, trap_excited_population(state))
            state = free_evolve_joint(state, spectrum, -state.t)
            matrix[:, j0 * d + k0] = hybrid_block(state).ravel()
    return matrix, residual_max


def uniform_hybrid_state(d):
    """Equal superposition over every (level, packet) pair, trap empty."""
    amps = np.zeros((d + 1, d + 2, 2), dtype=np.complex128)
    amps[:d, :d, 0] = 1.0 / d
    return JointIonState(d, amps)


def test_trap_params_validation():
    assert TrapParams().omega_ge == 50.0
    # 1e155 and 10**200 are finite, but their squares, which the auxiliary map takes, are not
    for bad in (0.0, -1.0, math.nan, math.inf, 1e155, 10**200):
        with pytest.raises(ValueError, match="omega_ge must be positive and finite"):
            TrapParams(omega_ge=bad)
    assert TrapParams(omega_ge=1e154).omega_ge == 1e154


def test_hybrid_basis_state_layout():
    state = hybrid_basis(3, 2, 1)
    assert state.amps.shape == (4, 5, 2)
    assert state.amps[2, 1, 0] == 1.0
    assert_allclose(state.norm(), 1.0)
    assert trap_excited_population(state) == 0.0
    assert aux_population(state) == 0.0
    assert ground_populations(state) == (0.0, 0.0)
    block = hybrid_block(state)
    assert block.shape == (3, 3)
    assert block[2, 1] == 1.0
    with pytest.raises(ValueError):
        hybrid_basis(3, 3, 0)
    with pytest.raises(ValueError):
        JointIonState(3, np.zeros((4, 4, 2)))


def test_free_evolve_joint_control_levels_and_negative_dt():
    d = 3
    spectrum = RydbergSpectrum(2, d)
    state = hybrid_basis(d, 1, 0)
    dt = 7.3
    out = free_evolve_joint(state, spectrum, dt)
    assert out.t == dt
    # forward then backward restores the state exactly
    back = free_evolve_joint(out, spectrum, -dt)
    assert_allclose(back.amps, state.amps, atol=1e-13)
    assert back.t == 0.0


def test_free_evolve_joint_cycles_target_packets():
    d = 4
    spectrum = RydbergSpectrum(2, d)
    slot_time = spectrum.t_kepler / d
    for k in range(d):
        state = hybrid_basis(d, 0, k)
        out = free_evolve_joint(state, spectrum, slot_time)
        # the packet hops one slot per T_K/d
        assert_allclose(abs(out.amps[0, (k + 1) % d, 0]), 1.0, atol=1e-12)


def test_packet_swap_exchanges_core_and_ground_on_target():
    d = 3
    state = hybrid_basis(d, 1, 0)
    out = fire(state, "packet_swap")
    # pi area: |slot 0> -> i |ground>
    assert_allclose(out.amps[1, d, 0], 1j, atol=1e-15)
    assert_allclose(out.amps[1, 0, 0], 0.0, atol=1e-15)
    # and back, for a net -1 on the pair
    back = fire(out, "packet_swap")
    assert_allclose(back.amps[1, 0, 0], -1.0, atol=1e-15)
    # other slots are untouched
    other = fire(hybrid_basis(d, 1, 2), "packet_swap")
    assert_allclose(other.amps[1, 2, 0], 1.0, atol=1e-15)


def test_sideband_moves_level_population_onto_phonon():
    d = 3
    state = hybrid_basis(d, 1, 2)
    out = fire(state, "sideband", target_level=1)
    # pi area with the opposite rotation sense: |level 1, 0> -> -i |ground, 1>
    assert_allclose(out.amps[d, 2, 1], -1j, atol=1e-15)
    back = fire(out, "sideband", target_level=1)
    assert_allclose(back.amps[1, 2, 0], -1.0, atol=1e-15)
    # other control levels do not couple
    spectator = fire(state, "sideband", target_level=0)
    assert_allclose(spectator.amps, state.amps, atol=1e-15)
    with pytest.raises(ValueError):
        fire(state, "sideband", target_level=3)


def test_sideband_rejects_population_beyond_phonon_cap():
    d = 3
    amps = np.zeros((d + 1, d + 2, 2), dtype=np.complex128)
    amps[1, 0, 1] = 1.0  # level 1 with the trap already excited
    state = JointIonState(d, amps)
    with pytest.raises(ContractError):
        fire(state, "sideband", target_level=1)
    # other levels may still be addressed
    fire(state, "sideband", target_level=0)


def test_aux_cycle_phase_and_solver_examples():
    omega = 50.0
    assert_allclose(solve_aux_detuning(math.pi, omega), 0.0, atol=1e-12)
    assert_allclose(solve_aux_detuning(1.5 * math.pi, omega), omega / 2.0)
    assert_allclose(abs(solve_aux_detuning(0.0, omega)), omega)
    for mult in (1, 2, 3):
        for i in range(16):
            phi = 2.0 * math.pi * i / 16.0
            det = solve_aux_detuning(phi, omega, mult)
            assert abs(det) <= omega + 1e-9
            got = aux_cycle_phase(det, omega, mult)
            assert_allclose(
                (got - phi + math.pi) % (2.0 * math.pi) - math.pi, 0.0, atol=1e-10
            )
    with pytest.raises(ValueError):
        solve_aux_detuning(1.0, -5.0)
    with pytest.raises(ValueError):
        solve_aux_detuning(1.0, omega, 0)


def _scanned_aux_ratios(phases, p):
    """detuning / omega_ge by a scan over every admissible n with the solver's comparison, one phase per
    entry: the oracle of the solver's three candidates."""
    base = phases / (p * math.pi) - 1.0
    lo = np.ceil(p * (-1.0 - base) / 2.0 - 1e-12)
    hi = np.floor(p * (1.0 - base) / 2.0 + 1e-12)
    best = np.full(phases.shape, np.nan)
    for n in range(int(lo.min()), int(hi.max()) + 1):
        x = base + 2.0 * n / p
        admissible = (lo <= n) & (n <= hi) & (x >= -1.0 - 1e-12) & (x <= 1.0 + 1e-12)
        tie = (np.abs(np.abs(x) - np.abs(best)) <= 1e-15) & (x > best)
        better = np.isnan(best) | (np.abs(x) < np.abs(best) - 1e-15) | tie
        best = np.where(admissible & better, x, best)
    return best


def test_aux_detuning_is_the_scan_over_every_admissible_detuning():
    # ties and the +-1 edges fall on multiples of pi, so those are probed to the ulp and just past each
    # tolerance; the gates' own phases 2 pi a / d^k and random phases fill in
    rng = np.random.default_rng(42)
    multiples = np.arange(-6, 7) * math.pi
    nudges = np.array([0.0, 1e-16, 4e-16, 1e-15, 2e-15, 1e-13, 1e-12, 3e-12])
    near = np.concatenate([multiples[:, None] + nudges, multiples[:, None] - nudges], axis=1).ravel()
    ulps = np.concatenate([np.nextafter(multiples, np.inf), np.nextafter(multiples, -np.inf)])
    gates = np.concatenate([2.0 * math.pi * np.arange(d**k) / d**k for d in range(2, 7) for k in (2, 3)])
    phases = np.concatenate([near, ulps, np.arange(-48, 49) * (math.pi / 8.0), gates,
                             rng.uniform(-4.0 * math.pi, 4.0 * math.pi, 200)])
    omega = 50.0
    for p in range(1, 65):
        got = [solve_aux_detuning(phi, omega, p) for phi in phases.tolist()]
        assert np.array_equal(got, _scanned_aux_ratios(phases, p) * omega)
    few = phases[rng.choice(phases.size, 20, replace=False)]
    for p in (1000, 4096):
        assert np.array_equal([solve_aux_detuning(phi, omega, p) for phi in few.tolist()],
                              _scanned_aux_ratios(few, p) * omega)


def test_aux_pulse_imprints_dialed_phase():
    d = 3
    omega = 50.0
    for phi in (0.3, 2.0, 4.5):
        det = solve_aux_detuning(phi, omega)
        amps = np.zeros((d + 1, d + 2, 2), dtype=np.complex128)
        amps[0, d, 1] = 1.0  # |target ground, 1 phonon>
        out = fire(JointIonState(d, amps), "aux", TrapParams(omega), detuning=det)
        amp = out.amps[0, d, 1]
        assert_allclose(abs(amp), 1.0, atol=1e-12)
        assert_allclose(
            (np.angle(amp) - phi + math.pi) % (2.0 * math.pi) - math.pi, 0.0, atol=1e-10
        )


def test_aux_pulse_contracts():
    d = 3
    amps = np.zeros((d + 1, d + 2, 2), dtype=np.complex128)
    amps[0, d + 1, 1] = 1.0  # aux excited with a phonon: outside the model
    with pytest.raises(ContractError):
        fire(JointIonState(d, amps), "aux", TrapParams(50.0), detuning=0.0)
    good = np.zeros((d + 1, d + 2, 2), dtype=np.complex128)
    good[0, d, 1] = 1.0
    with pytest.raises(ValueError):
        fire(JointIonState(d, good), "aux", TrapParams(50.0), detuning=60.0)
    with pytest.raises(ValueError):
        fire(JointIonState(d, good), "aux", TrapParams(50.0), detuning=0.0, multiplicity=0)


def test_aux_drive_of_p_cycles_is_refused_where_its_time_overflows():
    # a drive lasts 2 pi p / omega_ge; where that overflows, the auxiliary map would take cos(inf). The bound
    # is the drive's own p, so omega_ge = 1e-300 drives one cycle but not 2**32
    d = 3
    good = np.zeros((d + 1, d + 2, 2), dtype=np.complex128)
    good[0, d, 1] = 1.0
    assert TrapParams(1e-300).omega_ge == 1e-300
    assert abs(fire(JointIonState(d, good), "aux", TrapParams(1e-300)).amps[0, d, 1]) == pytest.approx(1.0)
    assert iontrap_module.check_multiplicity(1, 1e-300) == 1
    for p, omega in ((1, 5e-324), (2**32, 1e-300)):
        with pytest.raises(ValueError, match="omega_ge must be large enough that the drive time"):
            iontrap_module.check_multiplicity(p, omega)
        with pytest.raises(ValueError, match="omega_ge must be large enough that the drive time"):
            fire(JointIonState(d, good), "aux", TrapParams(omega), multiplicity=p)


def test_pulse_step_validation():
    # a bad field is refused where the schedule is built, not when it fires:
    # one pulse as columns (kind, time, level, detuning, multiplicity)
    for row in [
        (3, 0.0, -1, 0.0, 1),  # no such kind
        (1, 0.0, -1, 0.0, 1),  # a sideband needs a level
        (1, 0.0, -2, 0.0, 1),
        (2, 0.0, -1, 0.0, 0),
        (2, 0.0, -1, 0.0, 2.5),
        (2, 0.0, -1, 0.0, True),
        (2, 0.0, -1, 0.0, 2.0),
        # a field the kind never reads: a level off sidebands, a detuning or multiplicity off aux drives
        (0, 0.0, 7, 0.0, 1),
        (0, 0.0, -1, 3.0, 1),
        (0, 0.0, -1, 0.0, 4),
    ]:
        with pytest.raises(ValueError):
            PulseSchedule(*([value] for value in row))
    PulseSchedule([1], [0.0], [1], [0.0], [1])


def test_execute_schedule_rejects_backward_steps():
    d = 3
    spectrum = RydbergSpectrum(2, d)
    params = TrapParams()
    state = free_evolve_joint(hybrid_basis(d, 0, 0), spectrum, 5.0)
    steps = pulses(("packet_swap", 1.0))
    with pytest.raises(ValueError):
        execute_schedule(state, steps, params, spectrum)


def test_build_run_steps_alignment_and_order():
    d = 4
    spectrum = RydbergSpectrum(2, d)
    params = TrapParams()
    slot_time = spectrum.t_kepler / d
    for k in range(d):
        steps = build_run_steps(1, k, 0.7, d, params, spectrum, t_min=3.0)
        assert [PULSE_KINDS[kind] for kind in steps.kinds] == [
            "packet_swap", "sideband", "aux", "sideband", "packet_swap",
        ]
        times = steps.times.tolist()
        assert times == sorted(times)
        assert times[0] >= 3.0
        # the first swap fires when packet k reaches the inner turning point
        phase_in_period = times[0] % spectrum.t_kepler
        assert_allclose(phase_in_period, ((-k) % d) * slot_time, atol=1e-9)
        # default run spans two Kepler periods, sidebands a full period apart
        assert_allclose(times[4] - times[0], 2.0 * spectrum.t_kepler)
        assert_allclose(times[3] - times[1], spectrum.t_kepler)
        assert_allclose(times[2], 0.5 * (times[1] + times[3]))


def test_build_run_steps_warnings():
    d = 3
    spectrum = RydbergSpectrum(2, d)
    params = TrapParams()
    with pytest.warns(UserWarning):
        build_run_steps(0, 0, 0.5, d, params, spectrum, kepler_periods=1.5)
    # an auxiliary drive slower than the sideband gap cannot be instantaneous
    slow = TrapParams(omega_ge=1e-4)
    with pytest.warns(UserWarning):
        build_run_steps(0, 0, 0.5, d, slow, spectrum)
    with pytest.raises(ValueError):
        build_run_steps(0, 0, 0.5, d, params, spectrum, kepler_periods=0.5)
    with pytest.raises(ValueError):
        build_run_steps(3, 0, 0.5, d, params, spectrum)


def test_single_run_branch_bookkeeping():
    # one run on (j, k) = (1, 2): that branch gets the dialed phase, branches
    # sharing only j or only k pick up -1 from their completed pulse pair,
    # untouched branches stay put
    d = 3
    spectrum = RydbergSpectrum(2, d)
    params = TrapParams()
    phi = 1.2345
    out = one_run(uniform_hybrid_state(d), 1, 2, phi, params, spectrum)
    out = free_evolve_joint(out, spectrum, -out.t)
    block = hybrid_block(out) * d
    expected = np.ones((d, d), dtype=np.complex128)
    expected[1, :] = -1.0
    expected[:, 2] = -1.0
    expected[1, 2] = np.exp(1j * phi)
    assert_allclose(block, expected, atol=1e-12)
    # no population left on the trap, the aux level, or either ground state
    assert trap_excited_population(out) < 1e-28
    assert aux_population(out) < 1e-28
    assert_allclose(ground_populations(out), (0.0, 0.0), atol=1e-28)


def test_single_run_preserves_branch_moduli():
    d = 3
    spectrum = RydbergSpectrum(2, d)
    params = TrapParams()
    rng = np.random.default_rng(8)
    amps = np.zeros((d + 1, d + 2, 2), dtype=np.complex128)
    raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    amps[:d, :d, 0] = raw / np.linalg.norm(raw)
    state = JointIonState(d, amps)
    out = one_run(state, 0, 1, 2.2, params, spectrum)
    out = free_evolve_joint(out, spectrum, -out.t)
    assert_allclose(np.abs(hybrid_block(out)), np.abs(amps[:d, :d, 0]), atol=1e-10)


def test_hybrid_phase_targets_values():
    d = 3
    table = hybrid_phase_targets(d, 1)
    offsets = level_offsets(d)
    assert_allclose(table, -2.0 * math.pi * np.outer(offsets, offsets) / d**2)
    assert table.shape == (d, d)
    assert_allclose(hybrid_phase_targets(d, 2), table / d)
    with pytest.raises(ValueError):
        hybrid_phase_targets(d, 0)


@pytest.mark.parametrize("d", [2, 3])
def test_composed_gate_reaches_unit_fidelity(d):
    shape = RegisterShape(d, 2)
    report = verify_hybrid_gate(shape, 0, 1, TrapParams(), RydbergSpectrum(2, d))
    assert report.fidelity > 1.0 - 1e-9
    assert report.trap_residual_max < 1e-10
    assert report.max_branch_phase_error < 1e-9
    assert report.d == d
    assert dataclasses.asdict(report)["fidelity"] == report.fidelity


def test_composed_gate_stack_is_held_to_the_amplitude_cap(monkeypatch):
    # the d=2 stack holds 4 states of (3, 4, 2) amplitudes: 96 in all
    shape, spectrum = RegisterShape(2, 2), RydbergSpectrum(2, 2)
    monkeypatch.setenv("QUDITFFT_MAX_AMPS", "96")
    assert verify_hybrid_gate(shape, 0, 1, TrapParams(), spectrum).fidelity > 1.0 - 1e-9
    monkeypatch.setenv("QUDITFFT_MAX_AMPS", "95")
    with pytest.raises(ValueError, match="QUDITFFT_MAX_AMPS"):
        verify_hybrid_gate(shape, 0, 1, TrapParams(), spectrum)


def test_composed_gate_single_period_runs():
    # with one-period runs the park-window deficits only cancel across the
    # composed d*d runs, not run by run; the composition must still be exact
    d = 3
    report = verify_hybrid_gate(
        RegisterShape(d, 2), 0, 1, TrapParams(), RydbergSpectrum(2, d), kepler_periods=1
    )
    assert report.fidelity > 1.0 - 1e-9


def test_composed_gate_wider_span():
    d = 3
    report = verify_hybrid_gate(
        RegisterShape(d, 3), 0, 2, TrapParams(), RydbergSpectrum(2, d)
    )
    assert report.fidelity > 1.0 - 1e-9


def test_composed_gate_degrades_under_dispersion():
    # frozen regression: quadratic dispersion with t_rev = 20 T_K wrecks the
    # packet timing; the exact value pins the revival-truncation code path
    d = 4
    kepler = RydbergSpectrum(2, d)
    spectrum = RydbergSpectrum(
        2, d, t_rev=20.0 * kepler.t_kepler, truncation="revival"
    )
    report = verify_hybrid_gate(RegisterShape(d, 2), 0, 1, TrapParams(), spectrum)
    assert report.fidelity < 0.9
    assert_allclose(report.fidelity, 0.1734298583303604, rtol=1e-7)
    assert report.truncation == "revival"


def test_verify_hybrid_gate_reads_the_trap_after_every_run(monkeypatch):
    # the worst trap population is taken after each five-pulse run, not once
    # at the end. The oracle restates the per-run loop through the public
    # executor. An ideal run hands its phonon back, so those residuals differ
    # only in rounding and never fall; to make the per-run read visible, a
    # wrapper around the firing loop parks a known population in the trap row
    # after one early run and restores the row before the next run fires.
    d = 4
    spectrum = RydbergSpectrum(2, d, t_rev=20.0 * RydbergSpectrum(2, d).t_kepler, truncation="revival")
    params = TrapParams()
    steps = build_phase_gate_schedule(0, 1, RegisterShape(d, 2), params, spectrum)
    state, residuals = basis_stack(d), []
    for start in range(0, len(steps), 5):
        state = execute_schedule(state, steps[start : start + 5], params, spectrum)
        residuals.append(float(trap_excited_population(state).max()))
    report = verify_hybrid_gate(RegisterShape(d, 2), 0, 1, params, spectrum)
    assert len(residuals) == d * d
    assert_allclose(report.trap_residual_max, max(residuals), rtol=0, atol=1e-13)

    real, seen, parked = iontrap_module._fire_in_place, [], []
    where = (d, 0, 0, 0, 1)  # pruned (target, j0, k0, control row, phonon): ground, state (0, 0), its level, 1 phonon

    def fire_and_park(buf, maps, sidebands):
        if parked:
            buf[where] = parked.pop()
        real(buf, maps, sidebands)
        if len(seen) == 1:
            parked.append(buf[where])
            buf[where] = 1e-4
        seen.append(float((np.abs(buf[..., 1]) ** 2).sum(axis=(0, -1)).max()))

    monkeypatch.setattr(iontrap_module, "_fire_in_place", fire_and_park)
    parked_report = verify_hybrid_gate(RegisterShape(d, 2), 0, 1, params, spectrum)
    assert len(seen) == d * d
    assert max(seen) > seen[-1]
    assert_allclose(parked_report.trap_residual_max, 1e-8, rtol=1e-12)
    assert parked_report.trap_residual_max == max(seen)
    assert parked_report.fidelity == report.fidelity


def full_stack_process(steps, params, spectrum):
    """Oracle of ``_realized_process``: every basis state on the whole control axis, as the trap layer fired
    them before the stack was pruned. Stack index j0*d + k0 of one (d+2, d*d, d+1, 2) frame buffer holds basis
    state (j0, k0), fired run by run through ``_fire_in_place`` with its single-axis sideband table."""
    d = spectrum.d
    maps, t, _ = iontrap_module._pulse_maps(steps, 0.0, params, spectrum)
    u, u_dag = iontrap_module._packet_matrices(d)
    col = np.arange(d * d)
    buf = np.zeros((d + 2, d * d, d + 1, 2), dtype=np.complex128)
    buf[:d, col, col // d, 0] = u[:, col % d]
    residual_max = 0.0
    for start in range(0, len(maps), 5):
        iontrap_module._fire_in_place(buf, maps[start : start + 5])
        trapped = np.abs(buf[..., 1]) ** 2  # [target, state, control]
        residual_max = max(residual_max, float(trapped.sum(axis=0).sum(axis=-1).max()))
    packets = u_dag @ buf[:d, :, :d, 0].reshape(d, -1)  # [packet k, column, level j]
    return packets.reshape(d, d * d, d).transpose(2, 0, 1).reshape(d * d, d * d), residual_max, t


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("truncation", ["kepler", "revival"])
def test_pruned_stack_is_the_full_stack(monkeypatch, d, truncation):
    # a basis state only ever populates its own control level and the control ground, so the pruned stack
    # fires the same arithmetic on every amplitude the full stack holds above rounding: every report field
    # and the whole j = j0 blocks of the process are bit-equal. Off those blocks the full stack holds only
    # second-order rounding of cos(pi/2) (up to 2.7e-30 with two-cycle drives at d = 8), the pruned one
    # exact zeros; and trap_residual_max, a sum of such rounding, moves by under 4e-15 relative
    spectrum = RydbergSpectrum(5, d)
    if truncation == "revival":
        spectrum = RydbergSpectrum(5, d, t_rev=20.0 * spectrum.t_kepler, truncation="revival")
    shape, params = RegisterShape(d, 2), TrapParams()
    block = np.kron(np.eye(d), np.ones((d, d))) == 1
    for kepler_periods, multiplicity in itertools.product((1, 2, 3), (1, 2)):
        options = dict(multiplicity=multiplicity, kepler_periods=kepler_periods)
        steps = build_phase_gate_schedule(0, 1, shape, params, spectrum, **options)
        matrix, residual, duration = iontrap_module._realized_process(steps, params, spectrum)
        full_matrix, full_residual, full_duration = full_stack_process(steps, params, spectrum)
        report = verify_hybrid_gate(shape, 0, 1, params, spectrum, **options)
        with monkeypatch.context() as patch:
            patch.setattr(iontrap_module, "_realized_process", lambda *_: (full_matrix, full_residual, full_duration))
            want = verify_hybrid_gate(shape, 0, 1, params, spectrum, **options)
        assert report == dataclasses.replace(want, trap_residual_max=report.trap_residual_max)
        assert report.trap_residual_max == residual
        assert_allclose(residual, full_residual, rtol=1e-14, atol=0)
        assert duration == full_duration
        assert np.array_equal(np.diag(matrix), np.diag(full_matrix))
        assert np.array_equal(matrix[block], full_matrix[block])
        assert not matrix[~block].any()
        assert np.abs(full_matrix[~block]).max() <= 1e-29


def test_build_phase_gate_schedule_covers_all_runs():
    d = 3
    spectrum = RydbergSpectrum(2, d)
    steps = build_phase_gate_schedule(0, 1, RegisterShape(d, 2), TrapParams(), spectrum)
    assert len(steps) == 5 * d * d
    times = steps.times.tolist()
    assert times == sorted(times)
    with pytest.raises(ValueError):
        build_phase_gate_schedule(1, 1, RegisterShape(d, 2), TrapParams(), spectrum)
    with pytest.raises(ValueError):
        build_phase_gate_schedule(0, 1, RegisterShape(4, 2), TrapParams(), spectrum)


def test_schedule_and_gate_with_multiplicity_two():
    # each auxiliary drive runs two generalized Rabi cycles with the
    # detuning solved for that multiplicity, and the composed gate stays exact
    d = 3
    shape, spectrum, params = RegisterShape(d, 2), RydbergSpectrum(2, d), TrapParams()
    steps = build_phase_gate_schedule(0, 1, shape, params, spectrum, multiplicity=2, kepler_periods=1)
    aux = [row for row in rows(steps) if row[0] == "aux"]
    phases = hybrid_phase_targets(d, 1).ravel()
    assert len(aux) == d * d
    for (_, _, _, detuning, multiplicity), phase in zip(aux, phases):
        assert multiplicity == 2
        assert detuning == solve_aux_detuning(float(phase), params.omega_ge, 2)
    report = verify_hybrid_gate(shape, 0, 1, params, spectrum, multiplicity=2, kepler_periods=1)
    assert abs(1.0 - report.fidelity) <= EPS_FIDELITY
    assert report.multiplicity == 2


def test_verify_hybrid_gate_validates_indices():
    d = 3
    spectrum = RydbergSpectrum(2, d)
    with pytest.raises(ValueError):
        verify_hybrid_gate(RegisterShape(d, 2), 0, 2, TrapParams(), spectrum)
    with pytest.raises(ValueError):
        verify_hybrid_gate(RegisterShape(4, 2), 0, 1, TrapParams(), spectrum)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize(
    "truncation,kepler_periods",
    [("kepler", 2), ("kepler", 1), ("revival", 2)],
)
def test_batched_gate_matches_unbatched_reference(d, truncation, kepler_periods):
    kepler = RydbergSpectrum(2, d)
    spectrum = kepler
    if truncation == "revival":
        spectrum = RydbergSpectrum(2, d, t_rev=20.0 * kepler.t_kepler, truncation="revival")
    matrix, residual_max = unbatched_hybrid_gate(d, spectrum, kepler_periods)
    report = verify_hybrid_gate(
        RegisterShape(d, 2), 0, 1, TrapParams(), spectrum, kepler_periods=kepler_periods
    )
    target = np.exp(1j * hybrid_phase_targets(d, 1).ravel())
    overlap = np.vdot(target, np.diag(matrix))
    assert_allclose(report.fidelity, abs(overlap) ** 2 / d**4, rtol=0, atol=1e-12)
    assert_allclose(report.global_phase, np.angle(overlap), rtol=0, atol=1e-12)
    assert_allclose(report.trap_residual_max, residual_max, rtol=0, atol=1e-12)
    branch_err = np.abs(np.angle(np.diag(matrix) * np.conj(target) * np.exp(-1j * np.angle(overlap))))
    assert_allclose(report.per_branch_phase_error, branch_err, rtol=0, atol=1e-12)
    # the whole process matrix, not just its diagonal, through the public pieces
    phases = hybrid_phase_targets(d, 1)
    stack = JointIonState(
        d, np.stack([hybrid_basis(d, j, k).amps for j in range(d) for k in range(d)])
    )
    for j in range(d):
        for k in range(d):
            stack = one_run(
                stack, j, k, float(phases[j, k]), TrapParams(), spectrum,
                kepler_periods=kepler_periods,
            )
    stack = free_evolve_joint(stack, spectrum, -stack.t)
    assert_allclose(hybrid_block(stack).reshape(d * d, d * d).T, matrix, rtol=0, atol=1e-12)


def test_batched_state_accessors_are_per_state():
    d = 3
    stack = JointIonState(
        d, np.stack([hybrid_basis(d, j, 0).amps for j in range(d)])
    )
    assert_allclose(stack.norm(), np.ones(d))
    assert trap_excited_population(stack).shape == (d,)
    assert hybrid_block(stack).shape == (d, d, d)
    stack.require_normalized()
    bad = stack.amps.copy()
    bad[1] *= 1.0 + 1e-6
    with pytest.raises(ContractError):
        JointIonState(d, bad).require_normalized()


def _stack_with_stranded(d, stranded):
    """Valid unit-norm states, state i holding population stranded[i] in
    |level 1, 1 phonon> and in |aux excited, 1 phonon>, the rest in the band."""
    amps = np.zeros((len(stranded), d + 1, d + 2, 2), dtype=np.complex128)
    for i, p in enumerate(stranded):
        amps[i, 1, 0, 1] = math.sqrt(p)
        amps[i, 0, d + 1, 1] = math.sqrt(p)
        amps[i, 0, 0, 0] = math.sqrt(1.0 - 2.0 * p)
    return JointIonState(d, amps)


def test_trap_population_does_not_depend_on_memory_layout():
    # a state may be a view of a target-leading frame buffer; the sum must run
    # in the order it takes on a fresh C-ordered state
    d, batch = 5, 25
    rng = np.random.default_rng(5)
    shape = (d + 2, batch, d + 1, 2)
    buf = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * 10.0 ** rng.uniform(-20, 0, size=shape)
    view = np.moveaxis(buf, 0, -2)
    got = trap_excited_population(JointIonState(d, view))
    assert np.array_equal(got, trap_excited_population(JointIonState(d, view.copy())))


def test_phonon_cap_contract_is_checked_per_state():
    d = 3
    stranded = np.zeros(8)
    stranded[5] = 10.0 * EPS_STATE
    stack = _stack_with_stranded(d, stranded)
    stack.require_normalized()
    with pytest.raises(ContractError):
        fire(stack, "sideband", target_level=1)
    with pytest.raises(ContractError):
        fire(stack, "aux", TrapParams(50.0), detuning=0.0)


def test_phonon_cap_contract_does_not_sum_over_the_stack():
    d = 3
    n = 16
    stranded = np.full(n, 0.5 * EPS_STATE)
    assert stranded.sum() > EPS_STATE
    stack = _stack_with_stranded(d, stranded)
    stack.require_normalized()
    fire(stack, "sideband", target_level=1)
    fire(stack, "aux", TrapParams(50.0), detuning=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_times_and_detunings_are_rejected(bad):
    d = 3
    spectrum, params = RydbergSpectrum(5, d), TrapParams()
    state = hybrid_basis(d, 1, 1)
    with pytest.raises(ValueError, match="finite"):
        free_evolve_joint(state, spectrum, bad)
    with pytest.raises(ValueError, match="times must be finite"):
        PulseSchedule([0], [bad], [-1], [0.0], [1])
    with pytest.raises(ValueError, match="detunings must be finite"):
        PulseSchedule([2], [1.0], [-1], [bad], [1])
    with pytest.raises(ValueError):
        fire(state, "aux", params, detuning=bad)
    with pytest.raises(ValueError, match="finite"):
        solve_aux_detuning(bad, params.omega_ge)
    with pytest.raises(ValueError, match="finite"):
        solve_aux_detuning(1.0, bad)
    with pytest.raises(ValueError, match="finite"):
        solve_aux_detuning(1.0, params.omega_ge, multiplicity=bad)
    with pytest.raises(ValueError, match="finite"):
        build_run_steps(1, 1, 0.5, d, params, spectrum, kepler_periods=bad)
    with pytest.raises(ValueError, match="finite"):
        build_run_steps(1, 1, 0.5, d, params, spectrum, t_min=bad)
    with pytest.raises(ValueError, match="finite"):
        build_run_steps(1, 1, 0.5, d, params, spectrum, t_ref=bad)
    with pytest.raises(ValueError, match="finite"):
        build_phase_gate_schedule(0, 1, RegisterShape(d, 2), params, spectrum, t0=bad)
    with pytest.raises(ValueError):
        execute_schedule(JointIonState(d, state.amps, bad), pulses(("packet_swap", 1.0)), params, spectrum)


def test_pulse_step_requires_an_int_target_level():
    for bad in (True, False, 1.0, "1", np.float64(1.0)):
        with pytest.raises(ValueError, match="levels must be ints"):
            PulseSchedule([1], [0.0], [bad], [0.0], [1])
    # the range check waits for the firing, where d is known
    step = pulses(("sideband", 0.0, 3))
    with pytest.raises(ValueError, match="level digit"):
        execute_schedule(hybrid_basis(3, 0, 0), step, TrapParams(), RydbergSpectrum(2, 3))


def basis_stack(d):
    """The d*d hybrid basis states, stack index j*d + k holding (level j, packet k)."""
    return JointIonState(d, np.stack([hybrid_basis(d, j, k).amps for j in range(d) for k in range(d)]))


def test_execute_schedule_never_writes_its_input():
    d = 3
    spectrum, params = RydbergSpectrum(2, d), TrapParams()
    steps = build_phase_gate_schedule(0, 1, RegisterShape(d, 2), params, spectrum)
    for state in (uniform_hybrid_state(d), basis_stack(d)):
        before = state.amps.copy()
        out = execute_schedule(state, steps, params, spectrum)
        assert state.amps.tobytes() == before.tobytes()
        assert not np.shares_memory(out.amps, state.amps)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("truncation", ["kepler", "revival"])
def test_whole_schedule_equals_one_call_per_run(d, truncation):
    # verify_hybrid_gate fires its runs one after another on one frame buffer,
    # from coefficients made once for the whole schedule; that holds only if
    # firing the buffer run by run changes no bit against firing it whole
    spectrum = RydbergSpectrum(2, d)
    if truncation == "revival":
        spectrum = RydbergSpectrum(2, d, t_rev=20.0 * spectrum.t_kepler, truncation="revival")
    params = TrapParams()
    steps = build_phase_gate_schedule(0, 1, RegisterShape(d, 2), params, spectrum)
    rng = np.random.default_rng([d, int(truncation == "revival")])
    amps = np.zeros((d + 1, d + 2, 2), dtype=np.complex128)
    raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    amps[:d, :d, 0] = raw / np.linalg.norm(raw)
    for state in (basis_stack(d), JointIonState(d, amps)):
        maps, t, _ = iontrap_module._pulse_maps(steps, state.t, params, spectrum)
        whole, runs = iontrap_module._to_frame(state, spectrum), iontrap_module._to_frame(state, spectrum)
        iontrap_module._fire_in_place(whole, maps)
        for start in range(0, len(maps), 5):
            iontrap_module._fire_in_place(runs, maps[start : start + 5])
        assert np.array_equal(whole, runs)
        # through the public executor each call makes its own frame, so the
        # per-run calls round differently but agree within 1e-13
        out = execute_schedule(state, steps, params, spectrum)
        for start in range(0, len(steps), 5):
            state = execute_schedule(state, steps[start : start + 5], params, spectrum)
        assert_allclose(state.amps, out.amps, rtol=0, atol=1e-13)
        assert out.t == state.t == t


def listed_gate_steps(d, params, spectrum, t0, multiplicity, kepler_periods):
    """Oracle of the array builder: the gate's pulses one row at a time,
    run after run, each run starting where the previous one ended."""
    phases, steps, t_min = hybrid_phase_targets(d, 1), [], t0
    for j in range(d):
        for k in range(d):
            t1, t2, t3, t4, t5 = iontrap_module._plan_run_times(t_min, k, d, spectrum.t_kepler, kepler_periods, t0)
            detuning = solve_aux_detuning(float(phases[j, k]), params.omega_ge, multiplicity)
            steps += [
                ("packet_swap", t1),
                ("sideband", t2, j),
                ("aux", t3, -1, detuning, multiplicity),
                ("sideband", t4, j),
                ("packet_swap", t5),
            ]
            t_min = t5
    return pulses(*steps)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 12])
def test_schedule_rows_equal_the_chained_run_builder(d):
    spectrum, params, phases = RydbergSpectrum(5, d), TrapParams(), hybrid_phase_targets(d, 1)
    for kepler_periods, multiplicity, t0 in itertools.product((1, 2, 3), (1, 2), (0.0, 7.3)):
        schedule = build_phase_gate_schedule(0, 1, RegisterShape(d, 2), params, spectrum, t0=t0,
                                             multiplicity=multiplicity, kepler_periods=kepler_periods)
        runs, t_min = [], t0
        for j in range(d):
            for k in range(d):
                runs.append(build_run_steps(j, k, float(phases[j, k]), d, params, spectrum, t_min=t_min,
                                            multiplicity=multiplicity, kepler_periods=kepler_periods, t_ref=t0))
                t_min = float(runs[-1].times[-1])
        listed = listed_gate_steps(d, params, spectrum, t0, multiplicity, kepler_periods)
        for name in COLUMNS:
            got = getattr(schedule, name)
            assert got.tobytes() == np.concatenate([getattr(run, name) for run in runs]).tobytes()
            assert got.tobytes() == getattr(listed, name).tobytes()


def test_schedule_slices_and_iteration_round_trip():
    # a slice is a schedule holding those rows, and the rows, read back
    # through the constructor, give the schedule bit for bit
    d = 3
    schedule = build_phase_gate_schedule(0, 1, RegisterShape(d, 2), TrapParams(), RydbergSpectrum(2, d),
                                         multiplicity=2, kepler_periods=1)
    steps = rows(schedule)
    assert len(steps) == len(schedule) == 5 * d * d
    assert steps[-1] == ("packet_swap", float(schedule.times[-1]), -1, 0.0, 1)
    assert steps[2] == ("aux", steps[2][1], -1, steps[2][3], 2)
    for part in (slice(0, 5), slice(7, 23), slice(None, None, 5), slice(-5, None), slice(3, 3)):
        assert type(schedule[part]) is PulseSchedule
        assert rows(schedule[part]) == steps[part]
    again = pulses(*steps)
    for name in COLUMNS:
        assert getattr(again, name).tobytes() == getattr(schedule, name).tobytes()
        with pytest.raises(ValueError):
            getattr(schedule, name)[0] = 0
    assert len(pulses()) == 0


def test_empty_stack_runs_a_whole_gate_schedule():
    d = 3
    spectrum, params = RydbergSpectrum(2, d), TrapParams()
    steps = build_phase_gate_schedule(0, 1, RegisterShape(d, 2), params, spectrum)
    empty = JointIonState(d, np.zeros((0, d + 1, d + 2, 2)))
    out = execute_schedule(empty, steps, params, spectrum)
    assert out.amps.shape == empty.amps.shape
    assert out.t == execute_schedule(basis_stack(d), steps, params, spectrum).t
    assert free_evolve_joint(empty, spectrum, 1.0).amps.shape == empty.amps.shape


def test_times_too_late_for_exact_frame_phases_are_refused():
    # w_j * tau is reduced mod 2 pi from the split product; above ~1.3e300 the split overflows
    d = 3
    spectrum, params = RydbergSpectrum(2, d), TrapParams()
    state = hybrid_basis(d, 1, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="within ~1.3e300 of the schedule's start, got 1e\\+301"):
            execute_schedule(state, pulses(("packet_swap", 1e301)), params, spectrum)
        with pytest.raises(ValueError, match="within ~1.3e300 of the schedule's start, got 1e\\+300"):
            execute_schedule(JointIonState(d, state.amps, -1e300), pulses(("packet_swap", 1e300)), params,
                             spectrum)
        out = execute_schedule(state, pulses(("packet_swap", 1e300)), params, spectrum)
    assert np.isfinite(out.amps).all()
    assert_allclose(out.norm(), 1.0, atol=1e-12)


def reference_free_evolve(amps, spectrum, dt):
    """Oracle free evolution: a whole-state copy, the control phases, then the
    slot map U^dag diag(phases) U through tensordot on the public layout."""
    d = spectrum.d
    u = wavepacket_basis_matrix(d)
    phases = np.exp(-1j * spectrum.frequency_offsets() * dt)
    slot_map = u.conj().T @ (phases[:, None] * u)
    amps = amps.copy()
    amps[..., :d, :, :] *= phases[:, None, None]
    amps[..., :, :d, :] = np.moveaxis(np.tensordot(slot_map, amps[..., :, :d, :], axes=([1], [-2])), 0, -2)
    return amps


def reference_schedule(amps, t, steps, params, spectrum):
    """Oracle executor, map by map: each pulse's 2x2 map on its two rows of a
    fresh whole-state copy. Returns (amps, t)."""
    d = spectrum.d
    for kind, time, level, det, multiplicity in rows(steps):
        dt = time - t
        if dt != 0.0:
            amps, t = reference_free_evolve(amps, spectrum, dt), time
        amps = amps.copy()
        if kind == "aux":
            w = params.omega_ge
            duration = 2.0 * math.pi * multiplicity / w
            c, s = math.cos(w * duration / 2.0), math.sin(w * duration / 2.0)
            mix = -1j * s * math.sqrt(max(w**2 - det**2, 0.0)) / w
            m = np.exp(0.5j * det * duration) * np.array([[c - 1j * s * det / w, mix], [mix, c + 1j * s * det / w]])
            pair = np.s_[..., :, d, 1], np.s_[..., :, d + 1, 0]
        else:
            sign = 1.0 if kind == "packet_swap" else -1.0
            c, s = math.cos(math.pi / 2.0), math.sin(math.pi / 2.0)
            m = [[c, sign * 1j * s], [sign * 1j * s, c]]
            if kind == "packet_swap":
                pair = np.s_[..., :, 0, :], np.s_[..., :, d, :]
            else:
                pair = np.s_[..., level, :, 0], np.s_[..., d, :, 1]
        a, b = amps[pair[0]], amps[pair[1]]
        amps[pair[0]], amps[pair[1]] = m[0][0] * a + m[0][1] * b, m[1][0] * a + m[1][1] * b
    return amps, t


def reference_evolve_back(amps, spectrum, t, steps):
    """Oracle: amps after the schedule, evolved back to its start time t the way the schedule evolved
    forward, one inter-pulse interval at a time. A single step back by -t would carry the oracle's own
    rounding of w_j * t, about 1e-13 rad at d=6."""
    times = [t] + steps.times.tolist()
    for later, earlier in zip(times[:0:-1], times[-2::-1]):
        if later != earlier:
            amps = reference_free_evolve(amps, spectrum, earlier - later)
    return amps


def test_state_time_advances_by_each_interval():
    # the clock is the schedule's own pulse times: from t=0.1, steps at 0.7 and
    # 2.9 end at exactly 2.9, where adding each interval, t + (time - t), would
    # reach 2.9000000000000004
    d = 3
    spectrum, params = RydbergSpectrum(2, d), TrapParams()
    state = JointIonState(d, hybrid_basis(d, 1, 0).amps, 0.1)
    steps = pulses(("packet_swap", 0.7), ("sideband", 2.9, 1))
    want, t = reference_schedule(state.amps, state.t, steps, params, spectrum)
    out = execute_schedule(state, steps, params, spectrum)
    assert out.t == t == 2.9
    assert_allclose(out.amps, want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
@pytest.mark.parametrize(
    "truncation,kepler_periods,multiplicity",
    [("kepler", 2, 1), ("kepler", 1, 1), ("revival", 2, 1), ("kepler", 1, 2)],
)
def test_executor_is_bit_equal_to_the_map_by_map_oracle(d, truncation, kepler_periods, multiplicity):
    # the oracle works in the Schroedinger picture, pulse map by pulse map with
    # slot-map free evolution in between; the executor works in the frame of
    # the free level phases. Times agree bit for bit, amplitudes within 1e-13.
    kepler = RydbergSpectrum(2, d)
    spectrum = kepler
    if truncation == "revival":
        spectrum = RydbergSpectrum(2, d, t_rev=20.0 * kepler.t_kepler, truncation="revival")
    shape, params = RegisterShape(d, 2), TrapParams()
    steps = build_phase_gate_schedule(
        0, 1, shape, params, spectrum, multiplicity=multiplicity, kepler_periods=kepler_periods
    )
    rng = np.random.default_rng([d, kepler_periods, multiplicity])
    states = [basis_stack(d)]
    for _ in range(2):
        amps = np.zeros((d + 1, d + 2, 2), dtype=np.complex128)
        raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        amps[:d, :d, 0] = raw / np.linalg.norm(raw)
        states.append(JointIonState(d, amps))
    for state in states:
        # every prefix of the first run, so each pulse's own sign shows, not only pairs of pulses
        for n in range(1, 5):
            want, _ = reference_schedule(state.amps, state.t, steps[:n], params, spectrum)
            assert_allclose(execute_schedule(state, steps[:n], params, spectrum).amps, want, rtol=0, atol=1e-13)
        out = execute_schedule(state, steps, params, spectrum)
        want, t = reference_schedule(state.amps, state.t, steps, params, spectrum)
        assert out.t == t
        assert_allclose(out.amps, want, rtol=0, atol=1e-13)
        back = free_evolve_joint(out, spectrum, -out.t)
        assert_allclose(back.amps, reference_evolve_back(want, spectrum, state.t, steps), rtol=0, atol=1e-13)

    # verify_hybrid_gate: the process matrix it forms and the trap read after every run
    amps, t, residual = basis_stack(d).amps, 0.0, 0.0
    for start in range(0, len(steps), 5):
        amps, t = reference_schedule(amps, t, steps[start : start + 5], params, spectrum)
        residual = max(residual, float(np.sum(np.abs(amps[..., 1]) ** 2, axis=(-2, -1)).max()))
    want = reference_evolve_back(amps, spectrum, 0.0, steps)[..., :d, :d, 0].reshape(d * d, d * d).T
    matrix, trap_residual, duration = iontrap_module._realized_process(steps, params, spectrum)
    assert_allclose(matrix, want, rtol=0, atol=1e-13)
    report = verify_hybrid_gate(
        shape, 0, 1, params, spectrum, multiplicity=multiplicity, kepler_periods=kepler_periods
    )
    assert_allclose(report.trap_residual_max, residual, rtol=0, atol=1e-13)
    assert report.trap_residual_max == trap_residual
    assert report.total_duration == duration == t


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 8, 12, 16])
def test_kepler_gate_meets_its_closed_form(d):
    # under the Kepler spectrum the composed gate is exactly the target phase
    # gate, so |1 - F| measures only rounding
    spectrum = RydbergSpectrum(5, d)
    for kepler_periods in (2, 1):
        report = verify_hybrid_gate(RegisterShape(d, 2), 0, 1, TrapParams(), spectrum, kepler_periods=kepler_periods)
        assert abs(1.0 - report.fidelity) <= 1e-13


# 1 - F of verify_hybrid_gate at q=2, n_bar=5 under the revival spectrum, frozen
# from the Schroedinger-picture executor that took a slot-map GEMM per free
# evolution: {kepler_periods: {d: (T_rev/T_K = 1e3, 1e4, 1e5)}}
REVIVAL_INFIDELITY = {
    2: {
        3: (0.001234084586082873, 1.234632903712729e-05, 1.234634452451644e-07),
        4: (0.037596482073878223, 0.0003828975826490888, 3.829936487287355e-06),
        6: (0.46672596168208047, 0.006497824422936893, 6.52126135894937e-05),
    },
    1: {
        3: (0.00047388106601786717, 4.739538349785022e-06, 4.739531811459585e-08),
        4: (0.015207367879253031, 0.0001532037122475849, 1.5322119140126489e-06),
        6: (0.2350212371348237, 0.0027090713161291857, 2.7131858320483815e-05),
    },
}


@pytest.mark.parametrize("kepler_periods", [2, 1])
@pytest.mark.parametrize("d", [3, 4, 6])
def test_revival_infidelity_is_frozen(d, kepler_periods):
    kepler = RydbergSpectrum(5, d)
    for ratio, want in zip((1e3, 1e4, 1e5), REVIVAL_INFIDELITY[kepler_periods][d]):
        spectrum = RydbergSpectrum(5, d, t_rev=ratio * kepler.t_kepler, truncation="revival")
        report = verify_hybrid_gate(RegisterShape(d, 2), 0, 1, TrapParams(), spectrum, kepler_periods=kepler_periods)
        assert abs((1.0 - report.fidelity) - want) <= 1e-12


@pytest.mark.parametrize("d", [3, 6])
def test_largest_multiplicity_keeps_the_gate_within_tolerance(d):
    # the bound on p: the dialed phase p*pi*(1 + x) carries p*pi times the solver's rounding
    biggest = iontrap_module.check_multiplicity(2**32, TrapParams().omega_ge)
    with pytest.raises(ValueError, match="multiplicity must be"):
        iontrap_module.check_multiplicity(biggest + 1, TrapParams().omega_ge)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a drive that long outlasts the sideband window
        report = verify_hybrid_gate(RegisterShape(d, 2), 0, 1, TrapParams(), RydbergSpectrum(5, d), multiplicity=biggest)
    assert abs(1.0 - report.fidelity) <= EPS_FIDELITY


@pytest.mark.parametrize("d", [3, 6])
def test_one_detuning_solve_and_one_aux_map_per_distinct_value(monkeypatch, d):
    solves, aux_maps = [], []
    solve, aux_map = iontrap_module.solve_aux_detuning, iontrap_module._aux_map
    monkeypatch.setattr(iontrap_module, "solve_aux_detuning", lambda phi, *args: solves.append(phi) or solve(phi, *args))
    monkeypatch.setattr(iontrap_module, "_aux_map", lambda x, *args: aux_maps.append(x) or aux_map(x, *args))
    spectrum, params = RydbergSpectrum(5, d), TrapParams()
    steps = build_phase_gate_schedule(0, 1, RegisterShape(d, 2), params, spectrum)
    phases = set(hybrid_phase_targets(d, 1).ravel().tolist())
    assert len(steps) == 5 * d * d
    assert len(solves) == len(set(solves)) == len(phases) == {3: 3, 6: 12}[d]
    for phi, detuning in zip(hybrid_phase_targets(d, 1).ravel(), steps.detunings[2::5]):
        assert detuning == solve(float(phi), params.omega_ge)
    execute_schedule(hybrid_basis(d, 1, 2), steps, params, spectrum)
    assert sorted(aux_maps) == sorted(set(steps.detunings[2::5].tolist()))


def trap_spectrum(d, truncation):
    """The n̄ = 2 spectrum at d, with T_rev = 20 T_K under the revival truncation."""
    kepler = RydbergSpectrum(2, d)
    if truncation == "kepler":
        return kepler
    return RydbergSpectrum(2, d, t_rev=20.0 * kepler.t_kepler, truncation="revival")


@pytest.mark.parametrize("d", [2, 3, 6])
@pytest.mark.parametrize("truncation", ["kepler", "revival"])
def test_pi_maps_are_the_pulse_layers_resonant_map(d, truncation):
    # swaps fire resonant_pulse_map(pi) as it is; a sideband fires its off-diagonal entries times -p and
    # -conj(p), p its level's frame phase. A hand-built schedule that opens with an auxiliary drive comes too.
    spectrum, params = trap_spectrum(d, truncation), TrapParams()
    gate = build_phase_gate_schedule(0, 1, RegisterShape(d, 2), params, spectrum)
    t_aux = gate.times[0] / 2.0
    hand = pulses(("aux", t_aux, -1, 3.0, 2), ("sideband", gate.times[0], d - 1), ("packet_swap", gate.times[1]),
                  ("sideband", gate.times[2], 0))
    pi_map = resonant_pulse_map(math.pi).ravel()
    for steps in (gate, hand):
        maps, _, _ = iontrap_module._pulse_maps(steps, 0.0, params, spectrum)
        frames = spectrum._free_phases(-steps.times)
        for row, kind, level, frame in zip(maps, steps.kinds, steps.levels, frames):
            if kind == PULSE_KINDS.index("packet_swap"):
                assert row[2:6].tobytes() == pi_map.tobytes()
            elif kind == PULSE_KINDS.index("sideband"):
                p = frame[level : level + 1]
                assert row[[2, 5]].tobytes() == pi_map[[0, 3]].tobytes()
                assert row[3:4].tobytes() == (-pi_map[1] * p).tobytes()
                assert row[4:5].tobytes() == (-pi_map[2] * p.conj()).tobytes()


def one_ion_state(d, level_amps, packet_amps):
    """Control ion in its levels with the target in ground, plus control in ground with the target in packets."""
    amps = np.zeros((d + 1, d + 2, 2), dtype=np.complex128)
    amps[:d, d, 0], amps[d, :d, 0] = level_amps, packet_amps
    return JointIonState(d, amps)


@pytest.mark.parametrize("d", [2, 3, 6])
@pytest.mark.parametrize("truncation", ["kepler", "revival"])
@pytest.mark.parametrize("periods", [-3.7, 0.4, 11.0])
def test_free_evolve_joint_takes_the_wavepacket_phase(d, truncation, periods):
    # one phase rule for both layers, the exactly reduced one: control levels pick up the energy-basis
    # phases bit for bit, target packets the wave-packet evolution up to how a GEMM and a matvec round
    spectrum = trap_spectrum(d, truncation)
    dt = periods * spectrum.t_kepler
    rng = np.random.default_rng([d, len(truncation)])
    e, b = rng.normal(size=(2, d)) + 1j * rng.normal(size=(2, d))
    levels = free_evolve_joint(one_ion_state(d, e, 0.0), spectrum, dt)
    assert levels.amps[:d, d, 0].tobytes() == free_evolve(AmplitudeVector("energy", e), spectrum, dt).amps.tobytes()
    packets = free_evolve_joint(one_ion_state(d, 0.0, b), spectrum, dt)
    want = free_evolve(AmplitudeVector("wavepacket", b), spectrum, dt).amps
    assert_allclose(packets.amps[d, :d, 0], want, rtol=0, atol=1e-15)
    for out in (levels, packets):
        assert out.t == dt


@pytest.mark.parametrize("d", [2, 3, 6, 12])
@pytest.mark.parametrize("truncation", ["kepler", "revival"])
@pytest.mark.parametrize("periods", [0.37, 11.0, 1e6, None])
def test_executor_free_evolution_is_free_evolve_joints_to_the_bit(d, truncation, periods):
    # one auxiliary drive at T leaves a band-populated state to free evolution alone: the executor's frame
    # and free_evolve_joint read the same phases, so they agree bit for bit (periods None: T = 3e9)
    spectrum = trap_spectrum(d, truncation)
    t = 3e9 if periods is None else periods * spectrum.t_kepler
    rng = np.random.default_rng([d, len(truncation)])
    amps = np.zeros((d + 1, d + 2, 2), dtype=np.complex128)
    raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    amps[:d, :d, 0] = raw / np.linalg.norm(raw)
    state = JointIonState(d, amps)
    out = execute_schedule(state, pulses(("aux", t, -1, 3.0, 2)), TrapParams(), spectrum)
    want = free_evolve_joint(state, spectrum, t)
    assert out.t == want.t == t
    assert out.amps.tobytes() == want.amps.tobytes()


def test_free_evolution_past_its_domain_is_refused_naming_the_time():
    # the split of dt overflows from ~1.339e300 on, and w_j * dt may overflow before: a ValueError names dt
    d = 3
    fast = RydbergSpectrum(1e-3, d)  # w_j ~ 1e9
    state, vector = hybrid_basis(d, 1, 1), AmplitudeVector("wavepacket", np.eye(d)[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spectrum, dt in ((RydbergSpectrum(2, d), 1e301), (RydbergSpectrum(2, d), -1e301), (fast, 1e300)):
            message = f"free evolution needs .* finite, got dt = {re.escape(repr(dt))}$"
            with pytest.raises(ValueError, match=message):
                free_evolve(vector, spectrum, dt)
            with pytest.raises(ValueError, match=message):
                free_evolve(vector, spectrum, np.array([0.0, 1.0, dt]))
            with pytest.raises(ValueError, match=message):
                free_evolve_joint(state, spectrum, dt)
        # a level frequency past the split's reach is refused at any time
        with pytest.raises(ValueError, match="every \\|w_j\\| below 1.339e\\+300"):
            free_evolve(vector, RydbergSpectrum(1e-102, d), 0.0)
        assert np.isfinite(free_evolve_joint(state, RydbergSpectrum(2, d), 1e300).amps).all()
        assert np.isfinite(free_evolve_joint(state, fast, 1e290).amps).all()


def test_schedule_columns_past_int64_are_refused_with_the_value_given():
    # the range is checked before the int64 cast, which would wrap a uint64 and cannot take a larger int
    for column, value in ((np.array([2**63], dtype=np.uint64), 2**63), ([2**64], 2**64), ([-(2**64)], -(2**64))):
        with pytest.raises(ValueError, match=f"^multiplicities must be ints within int64, got {value}$"):
            PulseSchedule([2], [0.0], [-1], [0.0], column)
        with pytest.raises(ValueError, match=f"^levels must be ints within int64, got {value}$"):
            PulseSchedule([1], [0.0], column, [0.0], [1])
    # a list whose ints numpy would make floats is read as ints too
    with pytest.raises(ValueError, match=f"^levels must be ints within int64, got {2**63}$"):
        PulseSchedule([1, 1], [0.0, 1.0], [-1, 2**63], [0.0, 0.0], [1, 1])
    big = PulseSchedule([2], [0.0], [-1], [0.0], np.array([2**32], dtype=np.uint64))
    assert big.multiplicities.dtype == np.int64 and big.multiplicities.tolist() == [2**32]


def test_hand_built_schedule_takes_the_multiplicity_bound():
    # 2**62 whole cycles read cos and sin of ~1.4e19 rad, where floats lie 2048 apart: refused by name
    with pytest.raises(ValueError, match="multiplicities must be"):
        PulseSchedule([2], [0.0], [-1], [0.0], [2**62])
    with pytest.raises(ValueError, match="multiplicities must be"):
        PulseSchedule([2], [0.0], [-1], [0.0], [2**32 + 1])
    # the largest accepted drive still completes its cycles: |target ground, 1 phonon> stays put
    d = 3
    amps = np.zeros((d + 1, d + 2, 2), dtype=np.complex128)
    amps[d, d, 1] = 1.0
    out = execute_schedule(JointIonState(d, amps), PulseSchedule([2], [0.0], [-1], [0.0], [2**32]), TrapParams(),
                           RydbergSpectrum(2, d))
    assert aux_population(out) <= 1e-11


def test_gate_time_names_the_largest_taylor_term_and_n_bar_on_a_tie():
    # T_K = 2π n̄³ just above the smallest normal float: at d = 12, j / T_K and j² / (2 T_rev) both overflow
    n_bar = 1.6e-103
    with pytest.raises(ValueError, match="^n_bar must be large enough"):
        iontrap_module.check_gate_time(RydbergSpectrum(n_bar, 12, t_rev=5e-324, truncation="revival"), 2)
    with pytest.raises(ValueError, match="^t_rev_ratio must be large enough"):
        iontrap_module.check_gate_time(RydbergSpectrum(n_bar, 3, t_rev=5e-324, truncation="revival"), 2)
    with pytest.raises(ValueError, match="^t_sr_ratio must be large enough"):
        iontrap_module.check_gate_time(RydbergSpectrum(5, 3, t_rev=1.0, t_sr=5e-324, truncation="super-revival"), 2)


@pytest.mark.parametrize("d", [3, 6, 24])
def test_kepler_periods_is_refused_once_the_sideband_window_rounds_away(d):
    # the largest accepted whole period count still plans every sideband window within half its width (the
    # planner's times round to the float grid of d²·(kepler_periods + 1)·T_K), and the next count is refused
    spectrum, params = RydbergSpectrum(5, d), TrapParams()
    lo, hi = 2, 2**62  # accepted, refused
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            iontrap_module.check_gate_time(spectrum, float(mid))
            lo = mid
        except ValueError as error:
            assert str(error).startswith("kepler_periods must be small enough that a run's sideband window")
            hi = mid
    assert 1e13 < lo < 1e16
    gap = spectrum.t_kepler
    steps = build_phase_gate_schedule(0, 1, RegisterShape(d, 2), params, spectrum, kepler_periods=float(lo))
    windows = steps.times[3::5] - steps.times[1::5]
    assert gap / 2 <= windows.min() and windows.max() <= 1.5 * gap
    with pytest.raises(ValueError, match="^kepler_periods must be small enough that a run's sideband window"):
        iontrap_module.check_gate_time(spectrum, float(hi))
