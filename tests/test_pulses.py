import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quditfft import (
    AmplitudeVector,
    AtomState,
    ConfigurationError,
    PulseProfile,
    RabiCouplings,
    RydbergSpectrum,
    change_basis,
    free_evolve,
    integrate_full,
    integrate_two_level,
    resonant_pulse_map,
    selectivity_error,
    selectivity_sweep,
)
from quditfft import pulses as pulses_module
from quditfft.constants import EPS_UNITARY, MAX_RK4_STEPS
from quditfft.pulses import PULSE_SHAPES, _resolve_steps
from quditfft.wavepacket import ENERGY, KEPLER, REVIVAL, WAVEPACKET


def core_packet(d):
    """All population in packet slot 0, none in the ground state."""
    return AtomState(0.0, AmplitudeVector(WAVEPACKET, np.eye(d)[0]))


def test_pulse_profile_validation():
    with pytest.raises(ValueError):
        PulseProfile(0.0, math.pi)
    with pytest.raises(ValueError):
        PulseProfile(1.0, math.pi, shape="triangle")
    for field in ("duration", "area", "center_detuning"):
        for value in (math.inf, -math.inf, math.nan):
            kwargs = {"duration": 1.0, "area": math.pi, "center_detuning": 0.0, field: value}
            with pytest.raises(ValueError, match=f"pulse {field} must be finite"):
                PulseProfile(**kwargs)


@pytest.mark.parametrize("shape", ["square", "gaussian"])
def test_envelope_integrates_to_one(shape):
    pulse = PulseProfile(3.7, 2.0, shape=shape)
    t = np.linspace(0.0, pulse.duration, 20001)
    integral = np.trapezoid(pulse.envelope(t), t)
    assert_allclose(integral, 1.0, atol=1e-6)
    # zero outside the window
    assert pulse.envelope(-0.1) == 0.0
    assert pulse.envelope(pulse.duration + 0.1) == 0.0
    # rabi is just area * envelope
    assert_allclose(pulse.rabi(t), 2.0 * np.asarray(pulse.envelope(t)), atol=1e-15)


@pytest.mark.parametrize("shape", ["square", "gaussian"])
def test_envelope_sample_does_not_depend_on_the_batch(shape):
    # RK4 samples the drive once per block of steps, so a time taken in an
    # array must give the bits the same time gives alone
    pulse = PulseProfile(39.27, 2.0, shape=shape)
    t = pulse.duration * (np.arange(20001) / 20000)
    one_by_one = np.array([pulse.rabi(x) for x in t.tolist()])
    assert np.array_equal(pulse.rabi(t), one_by_one)


def test_square_envelope_height():
    pulse = PulseProfile(4.0, math.pi)
    assert_allclose(pulse.envelope(2.0), 0.25)


def test_selectivity_threshold_is_one_slot():
    t_k, d = 100.0, 4
    assert PulseProfile(24.9, math.pi).is_selective(t_k, d)
    assert not PulseProfile(25.0, math.pi).is_selective(t_k, d)
    assert not PulseProfile(40.0, math.pi).is_selective(t_k, d)
    with pytest.raises(ValueError):
        PulseProfile(1.0, math.pi).is_selective(0.0, d)


def test_collective_rabi_examples():
    # uniform couplings add coherently: sqrt(d) * omega
    assert_allclose(RabiCouplings(np.full(4, 0.7)).omega_tilde_0, 2.0 * 0.7)
    # mixed couplings: (1 + 2 + 3)/sqrt(3) = 2 sqrt(3)
    assert_allclose(RabiCouplings(np.array([1.0, 2.0, 3.0])).omega_tilde_0, 2.0 * math.sqrt(3.0))
    with pytest.raises(ValueError):
        RabiCouplings(np.ones((2, 2)))


def test_rabi_couplings_consistency():
    coup = RabiCouplings.uniform(4, 0.5)
    assert coup.d == 4
    assert_allclose(coup.omega_tilde_0, 1.0)
    assert_allclose(coup.level_weights(), np.full(4, 0.5))
    with pytest.raises(ValueError):
        RabiCouplings(np.array([1.0, -1.0]))  # sums to zero
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="omega_gj"):
            RabiCouplings(np.array([1.0, bad]))
    with pytest.raises(ValueError):
        RabiCouplings(np.array([1.0]))  # a band needs at least two levels


def test_atom_state_contracts():
    state = AtomState.ground(3)
    assert state.d == 3
    assert_allclose(state.norm(), 1.0)
    state.require_normalized()
    core = core_packet(3)
    assert core.b_g == 0.0
    assert_allclose(core.wp.amps, [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        AtomState(0.0, AmplitudeVector(ENERGY, np.zeros(3)))


def test_resonant_pulse_map_special_areas():
    assert_allclose(resonant_pulse_map(0.0), np.eye(2), atol=1e-15)
    assert_allclose(
        resonant_pulse_map(math.pi), np.array([[0, 1j], [1j, 0]]), atol=1e-15
    )
    assert_allclose(resonant_pulse_map(2.0 * math.pi), -np.eye(2), atol=1e-15)
    m = resonant_pulse_map(0.7)
    assert_allclose(m.conj().T @ m, np.eye(2), atol=1e-15)


@pytest.mark.parametrize("shape", ["square", "gaussian"])
def test_two_level_pi_pulse_matches_closed_form(shape):
    # on resonance only the accumulated area matters, not the envelope
    coup = RabiCouplings.uniform(3)
    pulse = PulseProfile(1.0, math.pi, shape=shape)
    out = integrate_two_level(AtomState.ground(3), pulse, coup)
    want = resonant_pulse_map(math.pi) @ np.array([1.0, 0.0])
    assert_allclose([out.b_g, out.wp.amps[0]], want, atol=1e-8)
    assert_allclose(out.norm(), 1.0, atol=1e-9)


def test_two_level_general_area_and_frozen_slots():
    coup = RabiCouplings.uniform(4)
    rng = np.random.default_rng(1)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps = amps / np.sqrt(np.sum(np.abs(amps) ** 2) * 2.0)
    b_g = math.sqrt(0.5)
    state = AtomState(b_g, AmplitudeVector(WAVEPACKET, amps))
    pulse = PulseProfile(2.0, 1.1)
    out = integrate_two_level(state, pulse, coup)
    want = resonant_pulse_map(1.1) @ np.array([b_g, amps[0]])
    assert_allclose([out.b_g, out.wp.amps[0]], want, atol=1e-8)
    # slots other than the core are spectators
    assert_allclose(out.wp.amps[1:], amps[1:], atol=1e-15)
    assert_allclose(out.norm(), 1.0, atol=1e-9)


def test_zero_area_pulse_is_identity():
    coup = RabiCouplings.uniform(3)
    state = core_packet(3)
    out = integrate_two_level(state, PulseProfile(1.0, 0.0), coup)
    assert_allclose([out.b_g, out.wp.amps[0]], [0.0, 1.0], atol=1e-12)


def test_two_pi_pulse_flips_sign():
    coup = RabiCouplings.uniform(3)
    out = integrate_two_level(core_packet(3), PulseProfile(1.0, 2.0 * math.pi), coup)
    assert_allclose(out.wp.amps[0], -1.0, atol=1e-8)
    assert abs(out.b_g) < 1e-8


def test_coarse_step_count_is_rejected():
    coup = RabiCouplings.uniform(3)
    state = AtomState.ground(3)
    with pytest.raises(ConfigurationError):
        integrate_two_level(state, PulseProfile(1.0, math.pi), coup, n_steps=10)
    # 40 steps for a half-cycle pulse is acceptable
    integrate_two_level(state, PulseProfile(1.0, math.pi), coup, n_steps=40)


@pytest.mark.parametrize("duration", [4.021e-3, 4.021e-2, 0.4021, 1.0, 3.7, 402.1])
def test_pi_pulse_accuracy_is_duration_invariant(duration):
    # regression for an endpoint-sampling bug: accumulating i*h + h could
    # overshoot the pulse window by one ulp, zeroing the final k4 sample of
    # the square envelope and inflating the error to 1e-3 at some durations;
    # the explicit step count keeps the square pulse on the RK4 path
    coup = RabiCouplings.uniform(3)
    out = integrate_two_level(
        AtomState.ground(3), PulseProfile(duration, math.pi), coup, n_steps=100
    )
    want = resonant_pulse_map(math.pi) @ np.array([1.0, 0.0])
    assert np.abs(np.array([out.b_g, out.wp.amps[0]]) - want).max() < 1e-8


def test_rk4_step_halving_is_fourth_order():
    coup = RabiCouplings.uniform(3)
    pulse = PulseProfile(1.0, math.pi)
    want = resonant_pulse_map(math.pi) @ np.array([1.0, 0.0])
    errs = {}
    for n in (40, 80):
        out = integrate_two_level(AtomState.ground(3), pulse, coup, n_steps=n)
        errs[n] = np.abs(np.array([out.b_g, out.wp.amps[0]]) - want).max()
    ratio = errs[40] / errs[80]
    assert 12.8 < ratio < 19.2


def test_detuned_pulse_conserves_norm_and_suppresses_transfer():
    coup = RabiCouplings.uniform(3)
    resonant = integrate_two_level(
        AtomState.ground(3), PulseProfile(1.0, math.pi), coup
    )
    detuned = integrate_two_level(
        AtomState.ground(3), PulseProfile(1.0, math.pi, center_detuning=40.0), coup
    )
    assert_allclose(detuned.norm(), 1.0, atol=1e-9)
    transfer_res = abs(resonant.wp.amps[0]) ** 2
    transfer_det = abs(detuned.wp.amps[0]) ** 2
    assert transfer_res > 0.999
    assert transfer_det < 0.1


def test_integrate_full_impulsive_limit_matches_two_level():
    d = 4
    spectrum = RydbergSpectrum(4, d)
    coup = RabiCouplings.uniform(d)
    duration = 1e-5 * spectrum.t_kepler
    pulse = PulseProfile(duration, math.pi)
    state = core_packet(d)
    full = integrate_full(state, pulse, coup, spectrum)
    two = integrate_two_level(state, pulse, coup)
    # the band drift during the pulse scales linearly with its duration
    assert_allclose(full.b_g, two.b_g, atol=1e-4)
    assert_allclose(full.wp.amps, two.wp.amps, atol=1e-4)
    assert_allclose(full.norm(), 1.0, atol=1e-9)


def test_integrate_full_validates_dimensions():
    spectrum = RydbergSpectrum(4, 4)
    with pytest.raises(ValueError):
        integrate_full(
            AtomState.ground(3), PulseProfile(1.0, math.pi), RabiCouplings.uniform(3), spectrum
        )
    with pytest.raises(ValueError):
        integrate_full(
            AtomState.ground(4), PulseProfile(1.0, math.pi), RabiCouplings.uniform(3), spectrum
        )


def test_selectivity_error_baseline_regression():
    # frozen baseline: duration = T_K/d, d = 4, n_bar = 4, uniform couplings,
    # square envelope, pulse centered on the packet's turning-point passage
    d = 4
    spectrum = RydbergSpectrum(4, d)
    coup = RabiCouplings.uniform(d)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        leak = selectivity_error(
            spectrum, PulseProfile(spectrum.t_kepler / d, math.pi), coup
        )
    assert_allclose(leak, 0.1374529635816537, rtol=1e-7)


def test_selectivity_error_limits():
    d = 4
    spectrum = RydbergSpectrum(4, d)
    coup = RabiCouplings.uniform(d)
    # impulsive limit: the frozen-band model becomes exact
    fast = selectivity_error(
        spectrum, PulseProfile(1e-4 * spectrum.t_kepler, math.pi), coup
    )
    assert fast < 1e-6
    # a pulse lasting a whole orbit cannot address one packet
    with pytest.warns(UserWarning):
        slow = selectivity_error(
            spectrum, PulseProfile(spectrum.t_kepler, math.pi), coup
        )
    assert slow > 0.5


def test_selectivity_sweep_matches_pointwise_errors():
    d = 3
    spectrum = RydbergSpectrum(3, d)
    coup = RabiCouplings.uniform(d)
    durations = np.array([0.3, 0.1, 0.03]) * spectrum.t_kepler
    sweep = selectivity_sweep(spectrum, coup, durations)
    assert sweep.shape == durations.shape
    for t, leak in zip(durations, sweep):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert_allclose(
                leak, selectivity_error(spectrum, PulseProfile(float(t), math.pi), coup)
            )
    assert np.all(np.diff(sweep) < 0)


def _random_atom_state(rng, d):
    y = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
    y /= np.linalg.norm(y)
    return AtomState(y[d], AmplitudeVector(WAVEPACKET, y[:d]))


def _as_vector(state):
    return np.append(state.wp.amps, state.b_g)


@pytest.mark.parametrize("detuning", [0.0, 0.03, -0.05])
@pytest.mark.parametrize("truncation", [KEPLER, REVIVAL])
@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_exact_square_pulse_matches_rk4_oracle(d, truncation, detuning):
    # the exact eigh map of a square pi pulse at the CLI's default duration
    # against RK4 at 4x its default steps
    rng = np.random.default_rng([d, len(truncation), int(1000 * abs(detuning)), detuning < 0])
    spectrum = RydbergSpectrum(5, d, t_rev=20.0 * 2.0 * math.pi * 5**3, truncation=truncation)
    coup = RabiCouplings(rng.uniform(0.5, 1.5, size=d))
    pulse = PulseProfile(0.05 * spectrum.t_kepler, math.pi, center_detuning=detuning)
    state = _random_atom_state(rng, d)
    fine = 4 * _resolve_steps(pulse, None, spectrum.frequency_offsets())
    full = integrate_full(state, pulse, coup, spectrum)
    oracle = integrate_full(state, pulse, coup, spectrum, n_steps=fine)
    assert_allclose(_as_vector(full), _as_vector(oracle), rtol=0, atol=1e-12)
    fine_two = 4 * _resolve_steps(pulse, None, np.zeros(1))
    two = integrate_two_level(state, pulse, coup)
    oracle_two = integrate_two_level(state, pulse, coup, n_steps=fine_two)
    assert_allclose(_as_vector(two), _as_vector(oracle_two), rtol=0, atol=1e-12)
    # the map on (slots..., ground) is unitary
    columns = []
    for k in range(d + 1):
        e = np.eye(d + 1, dtype=np.complex128)[k]
        basis = AtomState(e[d], AmplitudeVector(WAVEPACKET, e[:d]))
        columns.append(_as_vector(integrate_full(basis, pulse, coup, spectrum)))
    m = np.array(columns).T
    assert np.abs(m.conj().T @ m - np.eye(d + 1)).max() < EPS_UNITARY


def test_gaussian_default_is_rk4_at_the_default_step_count():
    d = 4
    rng = np.random.default_rng(7)
    spectrum = RydbergSpectrum(4, d)
    coup = RabiCouplings(rng.uniform(0.5, 1.5, size=d))
    pulse = PulseProfile(spectrum.t_kepler / 8, math.pi, shape="gaussian", center_detuning=0.03)
    state = _random_atom_state(rng, d)
    steps = _resolve_steps(pulse, None, spectrum.frequency_offsets())
    full = integrate_full(state, pulse, coup, spectrum)
    explicit = integrate_full(state, pulse, coup, spectrum, n_steps=steps)
    assert np.array_equal(_as_vector(full), _as_vector(explicit))
    two = integrate_two_level(state, pulse, coup)
    explicit_two = integrate_two_level(state, pulse, coup, n_steps=_resolve_steps(pulse, None, np.zeros(1)))
    assert np.array_equal(_as_vector(two), _as_vector(explicit_two))


def _per_call_propagate(y0, offsets, weights, pulse, n_steps):
    """Oracle for the RK4 path: the drive sampled anew in every right-hand side,
    pulse.rabi(t) and both carrier phases, four times per step."""
    d, detuning = offsets.shape[0], pulse.center_detuning
    n = _resolve_steps(pulse, n_steps, offsets)

    def deriv(t, y):
        band, b_g = y[:d], y[d]
        k = pulse.rabi(t)
        out = np.empty_like(y)
        out[:d] = -1j * offsets * band + 0.5j * k * weights * np.exp(+1j * detuning * t) * b_g
        out[d] = 0.5j * k * np.exp(-1j * detuning * t) * np.dot(weights, band)
        return out

    h = pulse.duration / n
    y = y0.astype(np.complex128, copy=True)
    for i in range(n):
        t0 = pulse.duration * (i / n)
        t_mid = pulse.duration * ((i + 0.5) / n)
        t1 = pulse.duration * ((i + 1) / n)
        k1 = deriv(t0, y)
        k2 = deriv(t_mid, y + 0.5 * h * k1)
        k3 = deriv(t_mid, y + 0.5 * h * k2)
        k4 = deriv(t1, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def _both_integrators(state, pulse, coup, spectrum, n_steps):
    full = integrate_full(state, pulse, coup, spectrum, n_steps=n_steps)
    two = integrate_two_level(state, pulse, coup, n_steps=n_steps)
    return _as_vector(full), _as_vector(two)


def _assert_bit_equal(got, want):
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("kind", ["gaussian-default", "gaussian-explicit", "square-explicit"])
@pytest.mark.parametrize("detuning", [0.0, 0.03, -0.05])
@pytest.mark.parametrize("truncation", [KEPLER, REVIVAL])
@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_rk4_drive_tables_match_per_call_sampling(monkeypatch, d, truncation, detuning, kind):
    rng = np.random.default_rng([d, len(truncation), int(1000 * abs(detuning)), detuning < 0])
    spectrum = RydbergSpectrum(5, d, t_rev=20.0 * 2.0 * math.pi * 5**3, truncation=truncation)
    coup = RabiCouplings(rng.uniform(0.5, 1.5, size=d))
    shape, steps = kind.split("-")
    pulse = PulseProfile(0.05 * spectrum.t_kepler, math.pi, shape=shape, center_detuning=detuning)
    n_steps = None if steps == "default" else _resolve_steps(pulse, None, spectrum.frequency_offsets()) // 2 + 1
    state = _random_atom_state(rng, d)
    got = _both_integrators(state, pulse, coup, spectrum, n_steps)
    # a resonant two-level gaussian takes the exact map: its square twin's, to the bit
    exact = detuning == 0.0 and n_steps is None
    if exact:
        twin = integrate_two_level(state, PulseProfile(pulse.duration, pulse.area), coup)
        assert np.array_equal(got[1], _as_vector(twin))
    monkeypatch.setattr(pulses_module, "_propagate", _per_call_propagate)
    if exact:  # the full band still runs RK4
        _assert_bit_equal(got[:1], [_as_vector(integrate_full(state, pulse, coup, spectrum))])
    else:
        _assert_bit_equal(got, _both_integrators(state, pulse, coup, spectrum, n_steps))


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_resonant_two_level_pulse_is_exact_whatever_its_envelope(d):
    # pulse-area theorem: on resonance with no level offset the generator is kappa(t) times one constant
    # matrix, so the map depends on the area alone
    rng = np.random.default_rng([d, 22])
    coup = RabiCouplings(rng.uniform(0.5, 1.5, size=d))
    for area in (math.pi, 0.7, 2.0 * math.pi, -1.3, 5.5):
        for duration in (4.021e-3, 1.0, 39.27):
            state = _random_atom_state(rng, d)
            gaussian = integrate_two_level(state, PulseProfile(duration, area, shape="gaussian"), coup)
            square = integrate_two_level(state, PulseProfile(duration, area), coup)
            assert np.array_equal(_as_vector(gaussian), _as_vector(square))
            want = resonant_pulse_map(area) @ np.array([state.b_g, state.wp.amps[0]])
            assert_allclose([gaussian.b_g, gaussian.wp.amps[0]], want, rtol=0, atol=1e-15)
            assert np.array_equal(gaussian.wp.amps[1:], state.wp.amps[1:])


def test_detuned_or_stepped_two_level_pulses_still_run_rk4(monkeypatch):
    d = 3
    rng = np.random.default_rng(23)
    coup = RabiCouplings(rng.uniform(0.5, 1.5, size=d))
    state = _random_atom_state(rng, d)
    cases = [
        (PulseProfile(1.0, math.pi, shape="gaussian", center_detuning=0.03), None),
        (PulseProfile(1.0, math.pi, shape="gaussian"), 120),
        (PulseProfile(1.0, math.pi), 120),
    ]
    rk4 = pulses_module._rk4
    calls = []
    monkeypatch.setattr(pulses_module, "_rk4", lambda *args: calls.append(args[3]) or rk4(*args))
    got = [_as_vector(integrate_two_level(state, pulse, coup, n_steps=n)) for pulse, n in cases]
    assert calls == [200, 120, 120]
    monkeypatch.setattr(pulses_module, "_propagate", _per_call_propagate)
    _assert_bit_equal(got, [_as_vector(integrate_two_level(state, pulse, coup, n_steps=n)) for pulse, n in cases])


@pytest.mark.parametrize("shape", PULSE_SHAPES)
def test_stepped_resonant_rk4_stays_near_the_exact_map(shape):
    # RK4 at the old default step count stays the oracle of the exact resonant path; at that 200-step floor
    # a gaussian's truncation error is 1.1e-10 at area pi, 1.1e-8 at 2 pi
    coup = RabiCouplings.uniform(3)
    rng = np.random.default_rng(24)
    for area in (math.pi, 0.7, -1.3):
        pulse = PulseProfile(1.0, area, shape=shape)
        state = _random_atom_state(rng, 3)
        steps = _resolve_steps(pulse, None, np.zeros(1))
        stepped = integrate_two_level(state, pulse, coup, n_steps=steps)
        exact = integrate_two_level(state, pulse, coup)
        assert_allclose(_as_vector(stepped), _as_vector(exact), rtol=0, atol=1e-8)


def test_rk4_drive_tables_are_built_block_by_block(monkeypatch):
    # a 60-entry budget holds 7 steps of (d+1)=4 entries per half-step row
    # at d=3 and 14 steps of 2 at the two-level case; 213 steps then leave a
    # short last block, and the block edges fall all through the pulse
    d, budget, n_steps = 3, 60, 213
    rng = np.random.default_rng(11)
    spectrum = RydbergSpectrum(5, d)
    coup = RabiCouplings(rng.uniform(0.5, 1.5, size=d))
    pulse = PulseProfile(0.05 * spectrum.t_kepler, math.pi, shape="gaussian", center_detuning=0.03)
    state = _random_atom_state(rng, d)
    whole = _both_integrators(state, pulse, coup, spectrum, n_steps)
    samples = []
    rabi = PulseProfile.rabi

    def counting_rabi(self, t):
        samples.append(np.size(t))
        return rabi(self, t)

    monkeypatch.setattr(pulses_module, "BATCH_BUDGET", budget)
    monkeypatch.setattr(PulseProfile, "rabi", counting_rabi)
    blocked = _both_integrators(state, pulse, coup, spectrum, n_steps)
    # one drive sample per block, never per right-hand side, each within budget
    assert samples == [15] * 30 + [7] + [29] * 15 + [7]
    _assert_bit_equal(blocked, whole)
    monkeypatch.setattr(pulses_module, "_propagate", _per_call_propagate)
    _assert_bit_equal(blocked, _both_integrators(state, pulse, coup, spectrum, n_steps))


def test_rk4_step_cap_is_enforced():
    d = 3
    spectrum = RydbergSpectrum(4, d)
    coup = RabiCouplings.uniform(d)
    state = AtomState.ground(d)
    for shape in PULSE_SHAPES:
        pulse = PulseProfile(1.0, math.pi, shape=shape)
        with pytest.raises(ConfigurationError, match="MAX_RK4_STEPS"):
            integrate_full(state, pulse, coup, spectrum, n_steps=MAX_RK4_STEPS + 1)
        with pytest.raises(ConfigurationError, match="MAX_RK4_STEPS"):
            integrate_two_level(state, pulse, coup, n_steps=MAX_RK4_STEPS + 1)
    # a long gaussian pulse resolves past the cap; the same square pulse is exact
    long = 1e6 * spectrum.t_kepler
    with pytest.raises(ConfigurationError, match="MAX_RK4_STEPS"):
        integrate_full(state, PulseProfile(long, math.pi, shape="gaussian"), coup, spectrum)
    out = integrate_full(state, PulseProfile(long, math.pi), coup, spectrum)
    assert_allclose(out.norm(), 1.0, atol=EPS_UNITARY)


def _stack_case(rng, d, shape, ratios, detuning=0.03):
    spectrum = RydbergSpectrum(5, d)
    coup = RabiCouplings(rng.uniform(0.5, 1.5, size=d))
    pulses = [PulseProfile(r * spectrum.t_kepler, math.pi, shape=shape, center_detuning=detuning) for r in ratios]
    y0 = rng.normal(size=(d + 1, len(ratios))) + 1j * rng.normal(size=(d + 1, len(ratios)))
    return (y0 / np.linalg.norm(y0, axis=0), spectrum.frequency_offsets(), coup.level_weights()), pulses


def test_stacked_columns_retire_across_block_edges(monkeypatch):
    # 213, 288 and 250 steps at d=3; a 60-entry budget holds 15 rows of 4 drive entries, so blocks of
    # 2, 3 and 7 steps while 3, 2 and 1 columns are active, and each column retires inside a block
    rng = np.random.default_rng(21)
    (y0, offsets, weights), pulses = _stack_case(rng, 3, "gaussian", (0.15, 0.25, 0.2))
    assert [_resolve_steps(p, None, offsets) for p in pulses] == [213, 288, 250]
    samples = []
    rabi = PulseProfile.rabi

    def counting_rabi(self, t):
        samples.append(np.size(t))
        return rabi(self, t)

    monkeypatch.setattr(PulseProfile, "rabi", counting_rabi)
    other_edges = pulses_module._propagate(y0, offsets, weights, pulses, None)
    # at the full budget the stacked tables still hold no more than the longest column's 577 rows:
    # blocks of 95 steps (191 rows) and one of 23 for three columns, then 37 steps for two, 38 for one
    assert samples == [191] * 6 + [47] * 3 + [75] * 2 + [77]
    samples.clear()
    monkeypatch.setattr(pulses_module, "BATCH_BUDGET", 60)
    stacked = pulses_module._propagate(y0, offsets, weights, pulses, None)
    # one drive sample per active column per block: 106 blocks of 2 steps and one of 1 for three
    # columns, 12 of 3 and one of 1 for two, 5 of 7 and one of 3 for the last
    assert samples == [5] * 318 + [3] * 3 + [7] * 24 + [3] * 2 + [15] * 5 + [7]
    assert stacked.shape == y0.shape
    assert np.array_equal(stacked, other_edges)
    for b, pulse in enumerate(pulses):
        alone = pulses_module._propagate(y0[:, b], offsets, weights, pulse, None)
        assert_allclose(stacked[:, b], alone, rtol=0, atol=1e-14)


def test_stacked_square_columns_are_their_own_calls_bit_for_bit():
    rng = np.random.default_rng(22)
    (y0, offsets, weights), pulses = _stack_case(rng, 5, "square", (0.3, 0.01, 0.1, 0.05))
    stacked = pulses_module._propagate(y0, offsets, weights, pulses, None)
    for b, pulse in enumerate(pulses):
        assert np.array_equal(stacked[:, b], pulses_module._propagate(y0[:, b], offsets, weights, pulse, None))


@pytest.mark.parametrize("truncation", [KEPLER, REVIVAL])
@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_selectivity_sweep_is_selectivity_error_per_point(d, truncation):
    # square points to the bit. A gaussian stack rounds its RK4 ground row apart by a bit here and there,
    # and the leakage 1 - |overlap|^2 keeps the absolute rounding of |overlap|^2 ~ 1: two ulps of 1.0
    # (4.4e-16) are 2e-13 of a 2e-3 leakage
    spectrum = RydbergSpectrum(5, d, t_rev=20.0 * 2.0 * math.pi * 5**3, truncation=truncation)
    coup = RabiCouplings.uniform(d)
    durations = spectrum.t_kepler * np.array([1.0 / d, 0.25 / d])
    for shape in PULSE_SHAPES:
        sweep = selectivity_sweep(spectrum, coup, durations, shape=shape)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # T_K / d is not selective
            points = [selectivity_error(spectrum, PulseProfile(t, math.pi, shape=shape), coup) for t in durations]
        if shape == "square":
            assert np.array_equal(sweep, points)
        else:
            assert_allclose(sweep, points, rtol=1e-13, atol=2 * np.finfo(float).eps)


def test_selectivity_sweep_keeps_the_shape_of_its_durations():
    d = 3
    spectrum = RydbergSpectrum(5, d)
    coup = RabiCouplings.uniform(d)
    for empty in (np.empty(0), np.empty((2, 0))):
        assert selectivity_sweep(spectrum, coup, empty, shape="gaussian").shape == empty.shape
    grid = spectrum.t_kepler * np.array([[0.3, 0.1], [0.03, 0.2]])
    sweep = selectivity_sweep(spectrum, coup, grid)
    assert sweep.shape == grid.shape
    assert np.array_equal(sweep.ravel(), selectivity_sweep(spectrum, coup, grid.ravel()))


def test_selectivity_sweep_refuses_an_over_long_column_before_any_step(monkeypatch):
    d = 3
    spectrum = RydbergSpectrum(5, d)
    steps = []
    monkeypatch.setattr(pulses_module, "_rk4", lambda *args: steps.append(args))
    durations = spectrum.t_kepler * np.array([0.05, 1e6, 0.1])
    with pytest.raises(ConfigurationError, match="MAX_RK4_STEPS"):
        selectivity_sweep(spectrum, RabiCouplings.uniform(d), durations, shape="gaussian")
    assert steps == []


def test_selectivity_sweep_over_unselective_durations_warns_nothing():
    d = 3
    spectrum = RydbergSpectrum(5, d)
    durations = np.geomspace(spectrum.t_kepler, spectrum.t_kepler / (4.0 * d), num=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for shape in PULSE_SHAPES:
            sweep = selectivity_sweep(spectrum, RabiCouplings.uniform(d), durations, shape=shape)
            assert np.all(np.isfinite(sweep))


def _packet_basis_leakage(spectrum, pulse, coup, n_steps=None):
    """Oracle: the same leakage by way of the packet basis. The core packet in slot 0 free-evolves back
    by T/2 there, runs through integrate_full, and meets the closed-form resonant map or, detuned, the
    two-level integrator fired at the pulse center."""
    core = core_packet(spectrum.d)
    start = AtomState(0.0, free_evolve(core.wp, spectrum, -pulse.duration / 2.0))
    full = integrate_full(start, pulse, coup, spectrum, n_steps=n_steps)
    if pulse.center_detuning == 0.0:
        g_ideal, core_ideal = resonant_pulse_map(pulse.area) @ np.array([0.0, 1.0])
    else:
        two = integrate_two_level(core, pulse, coup, n_steps=n_steps)
        g_ideal, core_ideal = two.b_g, two.wp.amps[0]
    ideal_band = free_evolve(change_basis(core.wp, ENERGY), spectrum, pulse.duration / 2.0).amps * core_ideal
    overlap = np.conj(g_ideal) * full.b_g + np.vdot(ideal_band, change_basis(full.wp, ENERGY).amps)
    return 1.0 - abs(overlap) ** 2


def _leakage_case(d, truncation):
    rng = np.random.default_rng([d, len(truncation), 24])
    spectrum = RydbergSpectrum(5, d, t_rev=20.0 * 2.0 * math.pi * 5**3, truncation=truncation)
    return spectrum, RabiCouplings(rng.uniform(0.5, 1.5, size=d)), spectrum.t_kepler * np.array([0.5 / d, 0.05, 0.01])


@pytest.mark.parametrize("truncation", [KEPLER, REVIVAL])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
def test_leakage_in_the_energy_basis_is_the_packet_basis_oracle(d, truncation):
    # per (d, truncation): 2 shapes x (3 sweep points + 3 durations x 2 detunings as single calls and as a
    # stack) = 30 points, 300 over the grid
    spectrum, coup, durations = _leakage_case(d, truncation)
    for shape in PULSE_SHAPES:
        sweep = selectivity_sweep(spectrum, coup, durations, shape=shape)
        want = [_packet_basis_leakage(spectrum, PulseProfile(t, math.pi, shape=shape), coup) for t in durations]
        assert_allclose(sweep, want, rtol=0, atol=1e-14)
        for detuning in (0.0, 0.03):
            pulses = [PulseProfile(t, math.pi, shape=shape, center_detuning=detuning) for t in durations]
            want = [_packet_basis_leakage(spectrum, p, coup) for p in pulses]
            assert_allclose([selectivity_error(spectrum, p, coup) for p in pulses], want, rtol=0, atol=1e-14)
            assert_allclose(pulses_module._leakages(spectrum, coup, pulses, None), want, rtol=0, atol=1e-14)


@pytest.mark.parametrize("shape", PULSE_SHAPES)
@pytest.mark.parametrize("d", [3, 5])
def test_stepped_leakage_is_the_packet_basis_oracle(d, shape):
    # detuned, both ideals run the stepped two-level model; on resonance the oracle's takes the closed form
    # while the routine steps the two-level pair like the band, so the two agree within the steps' truncation
    spectrum, coup, durations = _leakage_case(d, REVIVAL)
    for detuning, tol in ((0.03, 1e-14), (0.0, 1e-10)):
        pulse = PulseProfile(durations[1], math.pi, shape=shape, center_detuning=detuning)
        got = selectivity_error(spectrum, pulse, coup, n_steps=300)
        assert abs(got - _packet_basis_leakage(spectrum, pulse, coup, n_steps=300)) <= tol
    sweep = selectivity_sweep(spectrum, coup, durations[1:], shape=shape, n_steps=300)
    want = [_packet_basis_leakage(spectrum, PulseProfile(t, math.pi, shape=shape), coup, 300) for t in durations[1:]]
    assert_allclose(sweep, want, rtol=0, atol=1e-10)


@pytest.mark.parametrize("shape", PULSE_SHAPES)
def test_one_column_stack_is_the_lone_call(shape):
    rng = np.random.default_rng(24)
    (y0, offsets, weights), pulses = _stack_case(rng, 5, shape, (0.05,))
    for args in ((y0, offsets, weights), (y0[:2], np.zeros(1), np.ones(1))):  # the full band, the two-level pair
        for n_steps in (None, 250):
            stacked = pulses_module._propagate(*args, pulses, n_steps)
            assert stacked.shape == args[0].shape
            assert np.array_equal(stacked[:, 0], pulses_module._propagate(args[0][:, 0], *args[1:], pulses[0], n_steps))


@pytest.mark.parametrize("shape", PULSE_SHAPES)
def test_leakage_takes_two_propagations_and_stays_in_the_energy_basis(monkeypatch, shape):
    d = 4
    spectrum, coup = RydbergSpectrum(5, d), RabiCouplings.uniform(d)
    calls, bases = [], []
    propagate, change, evolve = pulses_module._propagate, pulses_module.change_basis, pulses_module.free_evolve

    def spy_propagate(y0, *args):
        calls.append(y0.shape)
        return propagate(y0, *args)

    def spy_change(v, to):
        bases.append(to)
        return change(v, to)

    def spy_evolve(v, *args):
        bases.append(v.basis)
        return evolve(v, *args)

    monkeypatch.setattr(pulses_module, "_propagate", spy_propagate)
    monkeypatch.setattr(pulses_module, "change_basis", spy_change)
    monkeypatch.setattr(pulses_module, "free_evolve", spy_evolve)
    for n in (1, 2, 8):
        calls.clear()
        selectivity_sweep(spectrum, coup, np.geomspace(spectrum.t_kepler, spectrum.t_kepler / (4.0 * d), num=n),
                          shape=shape)
        # one stack through the full band, one through the two-level pair; a one-column stack is the lone call
        lone = [(d + 1,), (2,)] if n == 1 else []
        assert [c for c in calls if len(c) == 2] == [(d + 1, n), (2, n)]
        assert sorted(c for c in calls if len(c) == 1) == sorted(lone)
    assert WAVEPACKET not in bases
