import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quditfft import (
    AmplitudeVector,
    ContractError,
    RydbergSpectrum,
    change_basis,
    dispersion_fidelity,
    fourier_gate_matrix,
    free_evolve,
    level_offsets,
    wavepacket_basis_matrix,
)
from quditfft import wavepacket
from quditfft.wavepacket import ENERGY, KEPLER, REVIVAL, SUPER_REVIVAL, WAVEPACKET


def test_level_offsets_windows():
    assert_allclose(level_offsets(2), [0, 1])
    assert_allclose(level_offsets(3), [0, 1, -1])
    assert_allclose(level_offsets(4), [0, 1, 2, -1])
    assert_allclose(level_offsets(5), [0, 1, 2, -2, -1])
    with pytest.raises(ValueError):
        level_offsets(1)


def test_spectrum_validation():
    # n̄ enters only through T_K = 2π n̄³, so any positive finite value is fine
    assert_allclose(RydbergSpectrum(5.5, 3).t_kepler, 2.0 * np.pi * 5.5**3)
    for bad in (-2, 0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            RydbergSpectrum(bad, 3)
    with pytest.raises(ValueError):
        RydbergSpectrum(5, 1)
    with pytest.raises(ValueError):
        RydbergSpectrum(5, 3, truncation="quartic")
    with pytest.raises(ValueError):
        RydbergSpectrum(5, 3, truncation=REVIVAL)  # t_rev missing
    with pytest.raises(ValueError):
        RydbergSpectrum(5, 3, t_rev=100.0, truncation=SUPER_REVIVAL)  # t_sr missing
    # a given t_rev or t_sr must be positive even where the truncation ignores it
    for name in ("t_rev", "t_sr"):
        for bad in (-1.0, 0.0, float("nan")):
            with pytest.raises(ValueError, match=f"{name} must be positive"):
                RydbergSpectrum(5, 3, **{name: bad})
    # T_K = 2π n̄³ overflows: rejected, not an OverflowError at first use
    with pytest.raises(ValueError, match="n_bar must be positive and finite"):
        RydbergSpectrum(1e200, 3)
    # T_K = 2π n̄³ underflows below the smallest normal float: rejected, not a division by zero later
    for tiny in (1e-110, 1e-103):
        with pytest.raises(ValueError, match="n_bar must be positive and finite"):
            RydbergSpectrum(tiny, 3)
    assert RydbergSpectrum(1e-102, 3).t_kepler > 0


def test_kepler_period_scaling():
    spectrum = RydbergSpectrum(5, 3)
    assert_allclose(spectrum.t_kepler, 2.0 * np.pi * 125.0)


def test_kepler_period_keeps_an_integer_cube_exact():
    # the period the constructor checks is the one the spectrum reports: 2π (n̄ n̄ n̄), whose cube of an
    # integer n̄ is exact, so it is 2π n̄³ to the bit there
    for n in (1, 2, 5, 10, 1000):
        for n_bar in (n, float(n)):
            assert RydbergSpectrum(n_bar, 3).t_kepler == 2.0 * np.pi * n**3


def test_frequency_offsets_term_by_term():
    t_rev, t_sr = 400.0, 9000.0
    spectrum = RydbergSpectrum(4, 4, t_rev=t_rev, t_sr=t_sr, truncation=SUPER_REVIVAL)
    j = level_offsets(4).astype(float)
    t_k = spectrum.t_kepler
    assert_allclose(dataclasses.replace(spectrum, truncation=KEPLER).frequency_offsets(), 2 * np.pi * j / t_k)
    assert_allclose(
        dataclasses.replace(spectrum, truncation=REVIVAL).frequency_offsets(),
        2 * np.pi * (j / t_k - j**2 / (2 * t_rev)),
    )
    assert_allclose(
        spectrum.frequency_offsets(),
        2 * np.pi * (j / t_k - j**2 / (2 * t_rev) + j**3 / (6 * t_sr)),
    )
    # offset of the reference level is always zero
    assert spectrum.frequency_offsets()[0] == 0.0
    with pytest.raises(ValueError):
        dataclasses.replace(spectrum, truncation="bogus").frequency_offsets()


def test_requesting_untracked_term_fails():
    kepler_only = RydbergSpectrum(4, 4)
    with pytest.raises(ValueError):
        dataclasses.replace(kepler_only, truncation=REVIVAL).frequency_offsets()


@pytest.mark.parametrize("d", [2, 3, 4, 7, 16, 64])
def test_wavepacket_basis_matrix_unitary(d):
    u = wavepacket_basis_matrix(d)
    assert_allclose(u.conj().T @ u, np.eye(d), atol=1e-12)


@pytest.mark.parametrize("d", range(2, 33))
def test_wavepacket_basis_matrix_is_bit_equal_to_per_entry_formula(d):
    # reference: the matrix evaluated entry by entry, which the table gather must reproduce bit for bit
    prods = np.outer(np.arange(d), np.arange(d)) % d
    np.testing.assert_array_equal(wavepacket_basis_matrix(d), np.exp(-2j * np.pi * prods / d) / np.sqrt(d))


def test_packet_adjoint_is_the_gate_layers_fourier_matrix_bit_for_bit():
    # the packet relabelling U^dag and the gate layer's Fourier gate come from one
    # DFT table with opposite signs; composing the two layers relies on equal bits.
    # Only the sign of a zero may differ: conj turns the +0 imaginary part of a
    # real entry into -0, so both sides are compared after adding +0.
    for d in range(2, 65):
        got = np.ascontiguousarray(wavepacket_basis_matrix(d).conj().T) + 0.0
        want = fourier_gate_matrix(d) + 0.0
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_packet_zero_is_uniform_level_superposition():
    d = 5
    u = wavepacket_basis_matrix(d)
    assert_allclose(u[:, 0], np.full(d, 1.0 / np.sqrt(d)), atol=1e-15)


def test_amplitude_vector_validation():
    with pytest.raises(ValueError):
        AmplitudeVector("position", np.zeros(3))
    with pytest.raises(ValueError):
        AmplitudeVector(ENERGY, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        AmplitudeVector(ENERGY, np.zeros(1))
    v = AmplitudeVector(ENERGY, [1.0, 0.0, 0.0])
    assert v.d == 3
    v.require_normalized()
    with pytest.raises(ContractError):
        AmplitudeVector(ENERGY, [1.0, 1.0]).require_normalized()


def test_change_basis_roundtrip_and_convention():
    rng = np.random.default_rng(2)
    amps = rng.normal(size=6) + 1j * rng.normal(size=6)
    packet = AmplitudeVector(WAVEPACKET, amps)
    energy = change_basis(packet, ENERGY)
    # convention: energy amplitudes e = U b
    assert_allclose(energy.amps, wavepacket_basis_matrix(6) @ amps, atol=1e-13)
    back = change_basis(energy, WAVEPACKET)
    assert_allclose(back.amps, amps, atol=1e-13)
    assert change_basis(packet, WAVEPACKET) is packet
    with pytest.raises(ValueError):
        change_basis(packet, "position")


def test_free_evolve_energy_basis_phases():
    spectrum = RydbergSpectrum(3, 4)
    amps = np.array([0.5, 0.5, 0.5, 0.5], dtype=np.complex128)
    v = AmplitudeVector(ENERGY, amps)
    dt = 17.0
    out = free_evolve(v, spectrum, dt)
    assert_allclose(
        out.amps, amps * np.exp(-1j * spectrum.frequency_offsets() * dt), atol=1e-13
    )
    with pytest.raises(ValueError):
        free_evolve(AmplitudeVector(ENERGY, np.ones(3) / np.sqrt(3)), spectrum, 1.0)


def _spectra(d):
    t_rev, t_sr = 40.0 * d, 900.0 * d
    return [RydbergSpectrum(3, d, t_rev=t_rev, t_sr=t_sr, truncation=t)
            for t in (KEPLER, REVIVAL, SUPER_REVIVAL)]


@pytest.mark.parametrize("basis", [ENERGY, WAVEPACKET])
@pytest.mark.parametrize("d", [3, 8, 64])
def test_free_evolve_time_array_is_bit_equal_to_one_call_per_time(d, basis):
    rng = np.random.default_rng(d)
    v = AmplitudeVector(basis, rng.normal(size=d) + 1j * rng.normal(size=d))
    times = np.concatenate([rng.uniform(-500.0, 500.0, size=6), [0.0]])
    for spectrum in _spectra(d):
        stacked = free_evolve(v, spectrum, times)
        assert len(stacked) == len(times)
        for t, out in zip(times, stacked):
            assert out.basis == basis
            np.testing.assert_array_equal(out.amps, free_evolve(v, spectrum, float(t)).amps)


@pytest.mark.parametrize("basis", [ENERGY, WAVEPACKET])
def test_negative_dt_inverts_free_evolve(basis):
    rng = np.random.default_rng(11)
    v = AmplitudeVector(basis, rng.normal(size=8) + 1j * rng.normal(size=8))
    for spectrum in _spectra(8):
        back = free_evolve(free_evolve(v, spectrum, 123.4), spectrum, -123.4)
        assert_allclose(back.amps, v.amps, rtol=0, atol=1e-13)
        for bad in (float("nan"), float("inf"), -float("inf"), np.array([1.0, np.nan])):
            with pytest.raises(ValueError, match="finite"):
                free_evolve(v, spectrum, bad)


def test_packet_matrix_is_cached_read_only_and_still_capped(monkeypatch):
    u = wavepacket_basis_matrix(5)
    assert wavepacket_basis_matrix(5) is u
    assert not u.flags.writeable
    with pytest.raises(ValueError):
        u[0, 0] = 0.0
    monkeypatch.setenv("QUDITFFT_MAX_AMPS", "16")
    with pytest.raises(ValueError, match="QUDITFFT_MAX_AMPS"):
        wavepacket_basis_matrix(5)


@pytest.mark.parametrize("d", [3, 64, 1024])
def test_cached_adjoint_is_read_only_and_bit_equal_to_a_fresh_conjugate(d):
    u, u_dag = wavepacket._packet_matrices(d)
    assert u is wavepacket_basis_matrix(d) and wavepacket._packet_matrices(d)[1] is u_dag
    assert not u_dag.flags.writeable
    with pytest.raises(ValueError):
        u_dag[0, 0] = 0.0
    fresh = u.conj().T
    assert u_dag.strides == fresh.strides
    rng = np.random.default_rng(d)
    x = rng.normal(size=d) + 1j * rng.normal(size=d)
    packet = change_basis(AmplitudeVector(ENERGY, x), WAVEPACKET).amps
    assert np.array_equal(packet.view(np.int64), (fresh @ x).view(np.int64))
    spectrum = RydbergSpectrum(3, d, t_rev=40.0 * d, truncation=REVIVAL)
    phases = spectrum._free_phases(17.5)
    moved = free_evolve(AmplitudeVector(WAVEPACKET, x), spectrum, 17.5).amps
    assert np.array_equal(moved.view(np.int64), (fresh @ (phases * (u @ x))[..., None])[..., 0].view(np.int64))


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_kepler_cycling_shifts_packet_slots(d):
    spectrum = RydbergSpectrum(4, d)
    rng = np.random.default_rng(d)
    amps = rng.normal(size=d) + 1j * rng.normal(size=d)
    amps = amps / np.linalg.norm(amps)
    packet = AmplitudeVector(WAVEPACKET, amps)
    slot_time = spectrum.t_kepler / d
    for m in range(2 * d + 1):
        out = free_evolve(packet, spectrum, m * slot_time)
        assert_allclose(out.amps, np.roll(amps, m), atol=1e-12)


def test_free_evolution_composes():
    spectrum = RydbergSpectrum(3, 4, t_rev=500.0, truncation=REVIVAL)
    rng = np.random.default_rng(9)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    v = AmplitudeVector(WAVEPACKET, amps)
    once = free_evolve(v, spectrum, 12.0)
    twice = free_evolve(free_evolve(v, spectrum, 5.0), spectrum, 7.0)
    assert_allclose(once.amps, twice.amps, atol=1e-13)


# π to 60 digits: across 1.6e13 turns (|ω_j·dt| = 1e14) it carries an error of about 1e-46 rad
PI_60 = Fraction("3.14159265358979323846264338327950288419716939937510582097494")


@pytest.mark.parametrize("truncation", [KEPLER, REVIVAL, SUPER_REVIVAL])
def test_free_phases_meet_an_exact_rational_oracle(truncation):
    # the oracle reduces ω_j·dt mod 2π in exact rationals from the two floats; the rule must stay within
    # 1e-15 rad for |ω_j·dt| up to 1e14, on both signs of dt (a rounded product is 8e-13 rad off at 1e4)
    spectrum = RydbergSpectrum(3, 7, t_rev=40.0, t_sr=900.0, truncation=truncation)
    w = spectrum.frequency_offsets()
    rng = np.random.default_rng(len(truncation))
    worst = 0.0
    for decade in range(-3, 14):
        for sign in (1.0, -1.0):
            for mantissa in rng.uniform(1.0, 10.0, size=3):
                dt = sign * mantissa * 10.0**decade / np.abs(w).max()
                for wj, phase in zip(w, spectrum._free_phases(dt)):
                    x = Fraction(float(wj)) * Fraction(dt)
                    exact = float(x - round(x / (2 * PI_60)) * (2 * PI_60))
                    worst = max(worst, abs(np.angle(phase * complex(math.cos(exact), math.sin(exact)))))
    assert worst <= 1e-15


def test_dispersion_fidelity_revival_structure():
    # core packet of d=4 has support on offsets {0, 1, 2, -1}
    t_rev = 300.0
    spectrum = RydbergSpectrum(2, 4, t_rev=t_rev, truncation=REVIVAL)
    core = AmplitudeVector(WAVEPACKET, [1.0, 0.0, 0.0, 0.0])
    assert_allclose(dispersion_fidelity(core, spectrum, 0.0), 1.0, atol=1e-12)
    # full rephasing after two revival times
    assert_allclose(dispersion_fidelity(core, spectrum, 2.0 * t_rev), 1.0, atol=1e-12)
    # at t_rev/2 the quadratic phases split the four levels into two pairs
    assert_allclose(dispersion_fidelity(core, spectrum, 0.5 * t_rev), 0.5, atol=1e-12)
    # the half-period-shifted revival at t_rev barely overlaps the ideal packet
    assert dispersion_fidelity(core, spectrum, t_rev) < 0.1


def test_dispersion_fidelity_needs_t_rev():
    spectrum = RydbergSpectrum(2, 4)
    core = AmplitudeVector(WAVEPACKET, [1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        dispersion_fidelity(core, spectrum, 1.0)


def test_dispersion_fidelity_even_offset_states_revive_at_t_rev():
    t_rev = 300.0
    spectrum = RydbergSpectrum(2, 4, t_rev=t_rev, truncation=REVIVAL)
    # offsets 0 and 2 are both even, so exp(i pi j) is a global phase
    even = np.zeros(4, dtype=np.complex128)
    even[0] = even[2] = 1.0 / np.sqrt(2.0)
    v = AmplitudeVector(ENERGY, even)
    assert_allclose(dispersion_fidelity(v, spectrum, t_rev), 1.0, atol=1e-12)


@pytest.mark.parametrize("ratio", [20.0, 1e10, 1e14, 1e16])
@pytest.mark.parametrize("d", [3, 6])
def test_dispersion_fidelity_holds_at_any_revival_time(d, ratio):
    # the Kepler term cancels between the truncations, so only the revival phase π j² dt / T_rev enters
    # and the fidelity depends on dt / T_rev alone, however long T_rev is against T_K
    spectrum = RydbergSpectrum(5, d, t_rev=ratio * 2.0 * np.pi * 5**3, truncation=REVIVAL)
    rng = np.random.default_rng(d)
    packet = rng.normal(size=d) + 1j * rng.normal(size=d)
    for v in (AmplitudeVector(WAVEPACKET, np.eye(d)[0]), AmplitudeVector(WAVEPACKET, packet / np.linalg.norm(packet))):
        p = np.abs(change_basis(v, ENERGY).amps) ** 2
        j = level_offsets(d)
        for frac in (0.5, 1.0, 2.0):
            want = abs(np.sum(p * np.exp(1j * np.pi * j**2 * frac))) ** 2
            assert abs(dispersion_fidelity(v, spectrum, frac * spectrum.t_rev) - want) <= 1e-12
