"""Acceptance suite: one test per top-level claim, one printed verdict each.

Each test prints a single ``[criterion N] PASS/FAIL`` line before asserting,
so a plain pytest run doubles as a checklist. Tolerances are part of the
contract and are asserted exactly as stated, not loosened to taste.
"""
import math
import time

import numpy as np

from quditfft import (
    AmplitudeVector,
    AtomState,
    JointIonState,
    PulseProfile,
    PulseSchedule,
    RabiCouplings,
    RegisterShape,
    RydbergSpectrum,
    TrapParams,
    change_basis,
    execute_schedule,
    fourier_gate_matrix,
    free_evolve,
    integrate_two_level,
    phase_gate_table,
    resonant_pulse_map,
    selectivity_sweep,
    solve_aux_detuning,
    verify_fft_equivalence,
    verify_hybrid_gate,
    wavepacket_basis_matrix,
)
from quditfft.cli import main as cli_main
from quditfft.wavepacket import ENERGY, WAVEPACKET

SWEEP_SEED = 20260816


def verdict(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_01_fft_decomposition_identity():
    shapes = [
        (d, q) for d in range(2, 6) for q in range(1, 5) if d**q <= 1024
    ]
    start = time.perf_counter()
    worst = 0.0
    counts_ok = True
    for d, q in shapes:
        report = verify_fft_equivalence(RegisterShape(d, q), tol=1e-10)
        worst = max(worst, report.max_entry_err)
        counts_ok = counts_ok and report.gate_count == q * (q + 1) // 2
        assert report.exhaustive
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and counts_ok and elapsed < 60.0
    assert verdict(
        1,
        ok,
        f"{len(shapes)} register shapes, max entry err {worst:.2e}, "
        f"gate counts q(q+1)/2, {elapsed:.1f} s",
    )


def test_criterion_02_binary_reduction():
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    fourier_err = float(np.abs(fourier_gate_matrix(2) - hadamard).max())
    phase_err = 0.0
    for span in range(1, 7):
        table = phase_gate_table(2, span)
        got = np.diag(
            [table[0, 0], table[0, 1], table[1, 0], table[1, 1]]
        )
        want = np.diag([1.0, 1.0, 1.0, np.exp(1j * math.pi / 2**span)])
        phase_err = max(phase_err, float(np.abs(got - want).max()))
    ok = fourier_err < 1e-15 and phase_err < 1e-15
    assert verdict(
        2,
        ok,
        f"d=2 Fourier vs Hadamard err {fourier_err:.2e}, "
        f"phase gate vs diag(1,1,1,exp(i pi/2^span)) err {phase_err:.2e}",
    )


def test_criterion_03_amplitude_and_phase_claims():
    shapes = [(2, 8), (3, 5), (4, 4), (5, 3), (6, 2), (13, 2)]
    worst_mod = worst_phase = 0.0
    for d, q in shapes:
        n = d**q
        assert n <= 256
        report = verify_fft_equivalence(RegisterShape(d, q), tol=1e-10)
        assert report.exhaustive and report.n_inputs == n
        worst_mod = max(worst_mod, report.max_mod_err)
        worst_phase = max(worst_phase, report.max_phase_err)
    ok = worst_mod < 1e-10 and worst_phase < 1e-10
    assert verdict(
        3,
        ok,
        f"exhaustive (a, c) pairs at N <= 256: modulus err {worst_mod:.2e} "
        f"vs 1/sqrt(N), phase err {worst_phase:.2e} rad vs 2 pi a c / N",
    )


def test_criterion_04_basis_duality():
    unit_err = 0.0
    for d in range(2, 65):
        u = wavepacket_basis_matrix(d)
        unit_err = max(
            unit_err, float(np.abs(u.conj().T @ u - np.eye(d)).max())
        )
    map_err = 0.0
    for d in range(2, 17):
        f = fourier_gate_matrix(d)
        for j in range(d):
            transformed = AmplitudeVector(ENERGY, f[:, j])
            packet = change_basis(transformed, WAVEPACKET)
            k = (-j) % d
            map_err = max(map_err, abs(abs(packet.amps[k]) - 1.0))
            # all weight concentrates on that one slot
            others = np.delete(packet.amps, k)
            map_err = max(map_err, float(np.abs(others).max()))
    ok = unit_err < 1e-12 and map_err < 1e-12
    assert verdict(
        4,
        ok,
        f"packet matrix unitarity err {unit_err:.2e} (d <= 64); Fourier maps "
        f"level j to packet -j mod d with modulus err {map_err:.2e} (d <= 16)",
    )


def test_criterion_05_kepler_cycling():
    worst = 0.0
    for d in range(2, 17):
        spectrum = RydbergSpectrum(4, d)
        slot_time = spectrum.t_kepler / d
        rng = np.random.default_rng(d)
        amps = rng.normal(size=d) + 1j * rng.normal(size=d)
        amps = amps / np.linalg.norm(amps)
        packet = AmplitudeVector(WAVEPACKET, amps)
        for m in range(2 * d + 1):
            evolved = free_evolve(packet, spectrum, m * slot_time)
            worst = max(
                worst, float(np.abs(evolved.amps - np.roll(amps, m)).max())
            )
    ok = worst < 1e-12
    assert verdict(
        5, ok, f"b_k -> b_(k-m) under m T_K/d for d in 2..16, max err {worst:.2e}"
    )


def test_criterion_06_rabi_oracle_and_convergence():
    coup = RabiCouplings.uniform(3)
    pulse = PulseProfile(1.0, math.pi)
    want = resonant_pulse_map(math.pi) @ np.array([1.0, 0.0])

    out = integrate_two_level(AtomState.ground(3), pulse, coup)
    err_default = float(
        np.abs(np.array([out.b_g, out.wp.amps[0]]) - want).max()
    )

    errs = {}
    for n in (40, 80):
        out = integrate_two_level(AtomState.ground(3), pulse, coup, n_steps=n)
        errs[n] = float(np.abs(np.array([out.b_g, out.wp.amps[0]]) - want).max())
    ratio = errs[40] / errs[80]

    ok = err_default < 1e-8 and 16.0 * 0.8 < ratio < 16.0 * 1.2
    assert verdict(
        6,
        ok,
        f"resonant pi pulse vs closed form err {err_default:.2e}; "
        f"step-halving error ratio {ratio:.2f} (want 16 +- 20%)",
    )


def test_criterion_07_selectivity_trend():
    d = 4
    spectrum = RydbergSpectrum(4, d)
    coup = RabiCouplings.uniform(d)
    t_k = spectrum.t_kepler
    lo, hi = t_k / (4.0 * d), t_k
    rng = np.random.default_rng(SWEEP_SEED)
    interior = np.exp(rng.uniform(math.log(lo), math.log(hi), size=6))
    durations = np.sort(np.concatenate([[hi], interior, [lo]]))[::-1]
    leakage = selectivity_sweep(spectrum, coup, durations, area=math.pi)
    decreasing = bool(np.all(np.diff(leakage) < 0))
    ok = decreasing and len(durations) == 8
    assert verdict(
        7,
        ok,
        f"leakage strictly decreasing over seeded 8-point sweep "
        f"T_K -> T_K/(4d): {np.array2string(leakage, precision=3)}",
    )


def test_criterion_08_ion_trap_protocol():
    params = TrapParams()
    results = {}
    elapsed_d4 = None
    for d in (2, 3, 4):
        start = time.perf_counter()
        report = verify_hybrid_gate(
            RegisterShape(d, 2), 0, 1, params, RydbergSpectrum(2, d)
        )
        elapsed = time.perf_counter() - start
        results[d] = report
        if d == 4:
            elapsed_d4 = elapsed
    fid_ok = all(r.fidelity > 1.0 - 1e-9 for r in results.values())
    trap_ok = all(r.trap_residual_max < 1e-10 for r in results.values())
    ok = fid_ok and trap_ok and elapsed_d4 < 120.0
    assert verdict(
        8,
        ok,
        "composed d^2 five-pulse runs: infidelities |1 - F| "
        + ", ".join(f"d={d}: {abs(1.0 - r.fidelity):.1e}" for d, r in results.items())
        + f"; max trap residual {max(r.trap_residual_max for r in results.values()):.1e}; "
        f"d=4 in {elapsed_d4:.1f} s",
    )


def test_criterion_09_detuning_solver():
    d = 3
    omega = 50.0
    params, spectrum = TrapParams(omega_ge=omega), RydbergSpectrum(2, d)
    worst = 0.0
    for i in range(16):
        phi = 2.0 * math.pi * i / 16.0
        detuning = solve_aux_detuning(phi, omega)
        amps = np.zeros((d + 1, d + 2, 2), dtype=np.complex128)
        amps[0, d, 1] = 1.0  # |target ground, one phonon>
        # one aux step at the state's own time, so no free evolution runs; the columns are
        # (kind, time, level, detuning, multiplicity), kind 2 the auxiliary drive
        step = PulseSchedule([2], [0.0], [-1], [detuning], [1])
        out = execute_schedule(JointIonState(d, amps), step, params, spectrum)
        amp = out.amps[0, d, 1]
        err = abs((np.angle(amp) - phi + math.pi) % (2.0 * math.pi) - math.pi)
        worst = max(worst, err, abs(abs(amp) - 1.0))
    ok = worst < 1e-8
    assert verdict(
        9, ok, f"16-phase grid reproduced through the 2 pi aux pulse, err {worst:.2e}"
    )


def test_criterion_10_deterministic_reports(tmp_path, capsys):
    outputs = []
    for tag in ("first", "second"):
        paths = []
        for mode, extra in (
            ("verify-qft", ["--d", "3", "--q", "2"]),
            ("full", ["--d", "2"]),
        ):
            out = tmp_path / f"{mode}-{tag}.json"
            code = cli_main(
                ["--mode", mode, "--seed", "7", "--out", str(out), *extra]
            )
            assert code == 0
            paths.append(out.read_bytes())
        outputs.append(paths)
    capsys.readouterr()  # drop any stray stdout from the runs
    ok = outputs[0] == outputs[1]
    assert verdict(
        10,
        ok,
        "re-running verify-qft and full modes with identical config + seed "
        "reproduced the JSON reports byte for byte",
    )
