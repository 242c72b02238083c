import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quditfft import (
    ContractError,
    QuditState,
    RegisterShape,
    dit_reversal_permutation,
    fourier_gate_matrix,
    measure_register,
    wavepacket_basis_matrix,
)
from quditfft.constants import DEFAULT_MAX_AMPS, MAX_AMPS_ENV
from quditfft.register import dft_exponents, dft_kernel, dft_table


def basis_state(a, shape):
    """Computational basis state |a> as a dense statevector."""
    if not 0 <= a < shape.n_amps:
        raise ValueError(f"basis index {a} out of range for {shape.n_amps} amplitudes")
    return QuditState(shape, np.eye(shape.n_amps)[a])


def reversed_digits_value(a, d, q):
    """Reference: the value of a's q base-d digits read in reverse, digit by digit."""
    return sum((a // d**m) % d * d ** (q - 1 - m) for m in range(q))


@pytest.mark.parametrize("d,q", [(2, 4), (3, 3), (4, 2), (5, 2), (2, 10), (3, 1)])
def test_dit_reversal_permutation_matches_stringwise_reverse(d, q):
    shape = RegisterShape(d, q)
    perm = dit_reversal_permutation(shape)
    # permutation of the index set, and an involution
    assert sorted(perm) == list(range(shape.n_amps))
    assert_allclose(perm[perm], np.arange(shape.n_amps))
    for a in range(shape.n_amps):
        assert perm[a] == reversed_digits_value(a, d, q)


@pytest.mark.parametrize("d", [2, 3, 4, 16, 32])
def test_dit_reversal_permutation_is_bit_equal_to_transpose_formula(d):
    # reference: reverse the digit axes of arange(N) and read it out in order
    q = 1
    while d**q <= DEFAULT_MAX_AMPS:
        shape = RegisterShape(d, q)
        want = np.arange(shape.n_amps).reshape((d,) * q).transpose(range(q - 1, -1, -1)).ravel()
        got = dit_reversal_permutation(shape)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        q += 1


def test_register_shape_validation():
    with pytest.raises(ValueError):
        RegisterShape(1, 2)
    with pytest.raises(ValueError):
        RegisterShape(2, 0)
    assert RegisterShape(2, 10).n_amps == 1024


def test_amplitude_cap_default_and_override():
    # default cap allows 2**20 and rejects the next power
    RegisterShape(2, 20)
    with pytest.raises(ValueError):
        RegisterShape(2, 21)
    # explicit max_amps overrides in both directions
    RegisterShape(2, 21, max_amps=2**21)
    with pytest.raises(ValueError):
        RegisterShape(2, 4, max_amps=8)


def test_amplitude_cap_rejects_huge_q_fast():
    # forming 3**(10**8) would take far longer than this bound
    start = time.perf_counter()
    with pytest.raises(ValueError, match=MAX_AMPS_ENV) as excinfo:
        RegisterShape(3, 10**8)
    assert time.perf_counter() - start < 1.0
    assert len(str(excinfo.value)) < 200


def test_amplitude_cap_env_var(monkeypatch):
    monkeypatch.setenv(MAX_AMPS_ENV, "16")
    RegisterShape(2, 4)
    with pytest.raises(ValueError):
        RegisterShape(2, 5)
    monkeypatch.setenv(MAX_AMPS_ENV, str(2**22))
    RegisterShape(2, 22)
    monkeypatch.setenv(MAX_AMPS_ENV, "not-a-number")
    with pytest.raises(ValueError):
        RegisterShape(2, 2)
    monkeypatch.setenv(MAX_AMPS_ENV, "1")
    with pytest.raises(ValueError):
        RegisterShape(2, 2)
    monkeypatch.delenv(MAX_AMPS_ENV)
    assert RegisterShape(2, 20).n_amps == DEFAULT_MAX_AMPS


def test_kernel_builders_share_the_amplitude_cap(monkeypatch):
    # a d x d kernel is held to the same cap as a register of d*d amplitudes
    monkeypatch.setenv(MAX_AMPS_ENV, "16")
    for build in (fourier_gate_matrix, wavepacket_basis_matrix):
        assert build(4).shape == (4, 4)
        with pytest.raises(ValueError, match=MAX_AMPS_ENV):
            build(5)


def test_basis_state_and_norm():
    shape = RegisterShape(3, 2)
    state = basis_state(4, shape)
    assert state.amps[4] == 1.0
    assert state.norm() == 1.0
    assert_allclose(state.probabilities().sum(), 1.0)
    state.require_normalized()
    with pytest.raises(ValueError):
        basis_state(9, shape)


def test_qudit_state_shape_and_normalization_contract():
    shape = RegisterShape(2, 2)
    with pytest.raises(ValueError):
        QuditState(shape, np.ones(3))
    state = QuditState(shape, np.ones(4))
    assert state.amps.dtype == np.complex128
    with pytest.raises(ContractError):
        state.require_normalized()


def test_measure_register_is_deterministic_per_seed():
    shape = RegisterShape(3, 2)
    amps = np.sqrt(np.arange(1, 10, dtype=np.float64))
    state = QuditState(shape, amps / np.linalg.norm(amps))
    first = measure_register(state, rng_seed=42)
    assert first == measure_register(state, rng_seed=42)
    assert len(first) == 2 and all(type(x) is int and 0 <= x < 3 for x in first)
    # a basis state always measures to its own digits, most significant
    # first: 7 = 2*3 + 1 gives (2, 1)
    for a in range(shape.n_amps):
        assert measure_register(basis_state(a, shape), rng_seed=a) == (a // 3, a % 3)


@pytest.mark.parametrize("n", [2, 3, 5, 16, 32, 2187])
def test_dft_kernel_matches_numpy_fft(n):
    # numpy's transforms are an independent oracle for the sign: the +1 kernel
    # is the orthonormal inverse FFT, the -1 kernel the forward one. Row blocks
    # keep n=2187 small in memory.
    idx = np.arange(n)
    for start in range(0, n, 256):
        rows = idx[start : start + 256]
        delta = np.zeros((len(rows), n))
        delta[np.arange(len(rows)), rows] = 1.0
        assert_allclose(dft_kernel(n, rows, idx), np.fft.ifft(delta, norm="ortho"), rtol=0, atol=1e-15)
        assert_allclose(dft_kernel(n, rows, idx, sign=-1), np.fft.fft(delta, norm="ortho"), rtol=0, atol=1e-15)


def test_dft_kernel_blocks_gather_from_one_table():
    n = 12
    rows, cols = np.array([0, 5, 11, 7]), np.array([3, 0, 10])
    block = dft_kernel(n, rows, cols, sign=-1)
    assert block.shape == (4, 3)
    np.testing.assert_array_equal(block, dft_table(n, -1)[(rows[:, None] * cols) % n])
    assert_allclose(dft_table(n, -1), dft_table(n).conj(), rtol=0, atol=1e-16)
    with pytest.raises(ValueError):
        dft_table(n, 2)


@pytest.mark.parametrize("n", [2**k for k in range(1, 21)] + [3, 6, 12, 100, 625, 46656, 531441, 1000003])
def test_dft_exponents_is_the_plain_remainder(n):
    # powers of two take a mask; it must give np.remainder's floor remainder bit
    # for bit, negative products and products that wrap int64 included
    rng = np.random.default_rng(n)
    rows = np.concatenate([np.arange(4), [n - 1, n, -1, -n - 3, 2**40, -(2**50)], rng.integers(-(2**62), 2**62, 10)])
    cols = np.concatenate([np.arange(5), [n - 1, n + 1, -7, 2**31], rng.integers(-(2**62), 2**62, 10)])
    want = np.remainder(rows[:, None] * cols[None, :], n)
    got = dft_exponents(n, rows, cols)
    assert got.dtype == want.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    out = np.full((len(rows), len(cols)), -5, dtype=np.int64)
    assert dft_exponents(n, rows, cols, out=out) is out
    np.testing.assert_array_equal(out, want)
