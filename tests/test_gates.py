import dataclasses
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quditfft import (
    GateDescriptor,
    RegisterShape,
    accumulated_phase_turns,
    apply_fourier_gate,
    apply_phase_gate,
    apply_sequence,
    build_fft_sequence,
    direct_dft,
    dit_reversal_permutation,
    fourier_gate_matrix,
    phase_gate_table,
    verify_fft_equivalence,
)
from quditfft import gates as gates_module
from quditfft.constants import BATCH_BUDGET
from quditfft.gates import GateSequence, compile_sequence
from quditfft.register import QuditState


def basis_state(a, shape):
    """Computational basis state |a> as a dense statevector."""
    return QuditState(shape, np.eye(shape.n_amps)[a])


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 16])
def test_fourier_gate_matrix_is_unitary(d):
    f = fourier_gate_matrix(d)
    assert_allclose(f.conj().T @ f, np.eye(d), atol=1e-13)
    # kernel convention: F[b, a] = exp(+2i pi a b / d) / sqrt(d)
    assert_allclose(f[1, 1], np.exp(2j * np.pi / d) / np.sqrt(d), atol=1e-15)


def test_fourier_gate_matrix_d2_is_hadamard():
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    assert_allclose(fourier_gate_matrix(2), h, atol=1e-15)


@pytest.mark.parametrize("d", range(2, 33))
def test_fourier_gate_matrix_is_bit_equal_to_per_entry_formula(d):
    # reference: the kernel evaluated entry by entry, which the table gather must reproduce bit for bit
    prods = np.outer(np.arange(d), np.arange(d)) % d
    np.testing.assert_array_equal(fourier_gate_matrix(d), np.exp(2j * np.pi * prods / d) / np.sqrt(d))


@pytest.mark.parametrize("d,span", [(2, 1), (2, 3), (3, 1), (3, 2), (5, 2), (2, 70)])
def test_phase_gate_table_properties(d, span):
    table = phase_gate_table(d, span)
    assert_allclose(np.abs(table), 1.0, atol=1e-15)
    assert_allclose(table, table.T, atol=1e-15)
    assert_allclose(table[0, :], 1.0, atol=1e-15)
    assert_allclose(
        table[1, 1], np.exp(2j * np.pi / d ** (span + 1)), atol=1e-15
    )


def test_phase_gate_table_rejects_zero_span():
    with pytest.raises(ValueError):
        phase_gate_table(3, 0)


def test_gate_descriptor_validation():
    with pytest.raises(ValueError):
        GateDescriptor("hadamard", 0)
    with pytest.raises(ValueError):
        GateDescriptor("phase", 1)
    with pytest.raises(ValueError):
        GateDescriptor("phase", 1, 1)
    with pytest.raises(ValueError):
        GateDescriptor("fourier", 2, 0)


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
def test_build_fft_sequence_structure(q):
    shape = RegisterShape(2, q)
    seq = build_fft_sequence(shape)
    assert len(seq.gates) == q * (q + 1) // 2
    # one Fourier gate per qudit, highest first, lowest last
    fouriers = [g for g in seq.gates if g.kind == "fourier"]
    assert [g.m for g in fouriers] == list(range(q - 1, -1, -1))
    assert seq.gates[0] == GateDescriptor("fourier", q - 1)
    assert seq.gates[-1] == GateDescriptor("fourier", 0)
    # every phase gate on (l, m) fires after the Fourier gate on m and
    # before the Fourier gate on l
    pos = {g: i for i, g in enumerate(seq.gates)}
    for g in seq.gates:
        if g.kind == "phase":
            assert pos[GateDescriptor("fourier", g.m)] < pos[g]
            assert pos[g] < pos[GateDescriptor("fourier", g.l)]


def test_apply_fourier_gate_single_qudit_matches_matrix():
    shape = RegisterShape(5, 1)
    rng = np.random.default_rng(7)
    amps = rng.normal(size=5) + 1j * rng.normal(size=5)
    state = QuditState(shape, amps)
    out = apply_fourier_gate(state, 0)
    assert_allclose(out.amps, fourier_gate_matrix(5) @ amps, atol=1e-13)
    with pytest.raises(ValueError):
        apply_fourier_gate(state, 1)


def test_apply_fourier_gate_acts_on_named_qudit_only():
    d, q = 3, 2
    shape = RegisterShape(d, q)
    f = fourier_gate_matrix(d)
    # qudit 0 is least significant: index a = a1*d + a0
    state = apply_fourier_gate(basis_state(5, shape), 0)  # digits a1=1, a0=2
    expected = np.zeros(9, dtype=np.complex128)
    expected[3:6] = f[:, 2]
    assert_allclose(state.amps, expected, atol=1e-13)
    state = apply_fourier_gate(basis_state(5, shape), 1)
    expected = np.zeros(9, dtype=np.complex128)
    expected[2::3] = f[:, 1]
    assert_allclose(state.amps, expected, atol=1e-13)


def test_apply_phase_gate_is_diagonal_in_digit_products():
    d, q = 3, 3
    shape = RegisterShape(d, q)
    rng = np.random.default_rng(11)
    amps = rng.normal(size=shape.n_amps) + 1j * rng.normal(size=shape.n_amps)
    state = QuditState(shape, amps)
    out = apply_phase_gate(state, 0, 2)
    denom = d ** 3
    for a in range(shape.n_amps):
        phase = np.exp(2j * np.pi * (a % d) * (a // d**2 % d) / denom)
        assert_allclose(out.amps[a], amps[a] * phase, atol=1e-13)
    with pytest.raises(ValueError):
        apply_phase_gate(state, 2, 2)


def _fold(state, sequence):
    """Reference: apply the sequence gate by gate with the single-gate spec."""
    for g in sequence.gates:
        if g.kind == "fourier":
            state = apply_fourier_gate(state, g.m)
        else:
            state = apply_phase_gate(state, g.l, g.m)
    return state


@pytest.mark.parametrize(
    "d,q",
    [(2, 3), (3, 2), (4, 2), (5, 1), (2, 6), (2, 1), (3, 4), (4, 3), (16, 2), (32, 2)],
)
def test_sequence_with_reversed_readout_equals_reference_dft(d, q):
    shape = RegisterShape(d, q)
    seq = build_fft_sequence(shape)
    perm = dit_reversal_permutation(shape)
    rng = np.random.default_rng(3)
    amps = rng.normal(size=shape.n_amps) + 1j * rng.normal(size=shape.n_amps)
    state = QuditState(shape, amps)
    out = apply_sequence(state, seq).amps
    assert_allclose(out, _fold(state, seq).amps, rtol=0, atol=1e-12)
    assert_allclose(out[perm], direct_dft(state).amps, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "d,q,sizes",
    [(2, 5, (4, 1)), (2, 7, (4, 3)), (2, 17, (4, 4, 4, 4, 1)), (3, 3, (2, 1)), (3, 5, (2, 2, 1)),
     (4, 3, (2, 1)), (5, 3, (1, 1, 1)), (16, 2, (1, 1))],
)
def test_grouped_plan_matches_fold_and_numpy_ifft(d, q, sizes):
    # where q is not a multiple of the group size the last stage is a smaller
    # group; (5, 3) and (16, 2) run one qudit per stage
    shape = RegisterShape(d, q)
    seq = build_fft_sequence(shape)
    plan = compile_sequence(seq)
    assert tuple(len(k) for k in plan.kernels) == tuple(d**k for k in sizes)
    rng = np.random.default_rng(d * 100 + q)
    state = QuditState(shape, rng.normal(size=shape.n_amps) + 1j * rng.normal(size=shape.n_amps))
    out = apply_sequence(state, seq).amps
    assert_allclose(out, _fold(state, seq).amps, rtol=0, atol=1e-12)
    perm = dit_reversal_permutation(shape)
    assert_allclose(out[perm], np.fft.ifft(state.amps, norm="ortho"), rtol=0, atol=1e-12)


def test_plan_for_five_or_more_levels_is_one_qudit_per_stage():
    # d**2 > 16, so every stage holds one qudit: the kernel is the Fourier
    # gate itself and each table is the product of the phase gates on (l, m')
    shape = RegisterShape(5, 4)
    plan = compile_sequence(build_fft_sequence(shape))
    for kernel in plan.kernels:
        np.testing.assert_array_equal(kernel, fourier_gate_matrix(5))
    for s, tables in enumerate(plan.twiddles):
        l = shape.q - 1 - s
        assert len(tables) == s
        for table, mp in zip(tables, range(shape.q - 1, l, -1)):
            np.testing.assert_array_equal(table, phase_gate_table(5, mp - l))


def test_plan_column_stack_matches_single_vectors():
    # (3, 4) is two full two-qudit stages; (2, 7) ends in a three-qudit stage
    for d, q in [(3, 4), (2, 7)]:
        shape = RegisterShape(d, q)
        plan = compile_sequence(build_fft_sequence(shape))
        rng = np.random.default_rng(8)
        cols = rng.normal(size=(shape.n_amps, 5)) + 1j * rng.normal(size=(shape.n_amps, 5))
        rows = plan.run(cols)
        assert rows.shape == (5, shape.n_amps)
        for b in range(5):
            assert_allclose(rows[b], plan.run(cols[:, b].copy()), rtol=0, atol=1e-13)


def _one_hot_run(plan, inputs):
    """Dense reference for run_basis: SequencePlan.run on the one-hot (N, B) stack."""
    arr = np.zeros((plan.shape.n_amps, len(inputs)), dtype=np.complex128)
    arr[inputs, np.arange(len(inputs))] = 1.0
    return plan.run(arr)


@pytest.mark.parametrize(
    "d,q",
    # grouped stages (2: 4 + 4 and 4 + 1, 3: 2 + 2 and 2 + 1, 4: 2 + 1), one
    # qudit per stage (5, 7) and one stage (q = 1)
    [(2, 8), (2, 5), (3, 4), (3, 3), (4, 3), (5, 3), (7, 2), (2, 1), (6, 1)],
)
def test_run_basis_is_bit_equal_to_dense_one_hot_run(d, q):
    shape = RegisterShape(d, q)
    plan = compile_sequence(build_fft_sequence(shape))
    n = shape.n_amps
    rng = np.random.default_rng(d * 10 + q)
    # every column, an unsorted sample and a single column
    for inputs in (np.arange(n), rng.permutation(n)[: max(1, n // 3)], np.array([n - 1])):
        got = plan.run_basis(inputs)
        assert got.shape == (len(inputs), n)
        np.testing.assert_array_equal(got.view(np.int64), _one_hot_run(plan, inputs).view(np.int64))


def _edited(gates, duplicate, drop):
    """The gate list with ``duplicate`` fired twice in a row and ``drop`` left out."""
    out = []
    for g in gates:
        if g != drop:
            out.append(g)
        if g == duplicate:
            out.append(g)
    return tuple(out)


def test_plan_matches_fold_for_edited_sequences():
    # a repeated phase gate multiplies into its twiddle or group kernel; a
    # missing one leaves a factor of one
    cases = []
    gates = build_fft_sequence(RegisterShape(3, 4)).gates
    phases = [g for g in gates if g.kind == "phase"]
    cases.append((RegisterShape(3, 4), _edited(gates, phases[0], phases[-1])))
    # at d=2, q=9 the stages are qudits 8..5, 4..1 and 0; (5, 7) and (1, 3)
    # lie inside one group, (2, 6) and (0, 8) span two
    shape = RegisterShape(2, 9)
    gates = build_fft_sequence(shape).gates
    inside = [GateDescriptor("phase", 7, 5), GateDescriptor("phase", 3, 1)]
    across = [GateDescriptor("phase", 6, 2), GateDescriptor("phase", 8, 0)]
    cases.append((shape, _edited(gates, inside[0], across[0])))
    cases.append((shape, _edited(gates, across[1], inside[1])))
    for shape, edited in cases:
        seq = GateSequence(shape, edited)
        rng = np.random.default_rng(10)
        state = QuditState(shape, rng.normal(size=shape.n_amps) + 1j * rng.normal(size=shape.n_amps))
        assert_allclose(apply_sequence(state, seq).amps, _fold(state, seq).amps, rtol=0, atol=1e-12)
        # the edit changes the transform
        assert np.abs(apply_sequence(state, build_fft_sequence(shape)).amps - _fold(state, seq).amps).max() > 1e-3


def test_apply_sequence_leaves_input_untouched():
    shape = RegisterShape(2, 6)
    rng = np.random.default_rng(9)
    amps = rng.normal(size=shape.n_amps) + 1j * rng.normal(size=shape.n_amps)
    state = QuditState(shape, amps.copy())
    apply_sequence(state, build_fft_sequence(shape))
    np.testing.assert_array_equal(state.amps, amps)


def test_compile_rejects_sequences_the_plan_cannot_represent():
    shape = RegisterShape(3, 3)
    gates = build_fft_sequence(shape).gates
    # the Fourier gate on qudit 0 comes first once the order is reversed
    with pytest.raises(ValueError, match=re.escape(repr(GateDescriptor("fourier", 0)))):
        compile_sequence(GateSequence(shape, gates[::-1]))
    # phase gate (l=0, m=2) moved in front of the Fourier gate on qudit 2
    early = GateDescriptor("phase", 2, 0)
    moved = (early,) + tuple(g for g in gates if g != early)
    with pytest.raises(ValueError, match=re.escape(repr(early))):
        compile_sequence(GateSequence(shape, moved))
    with pytest.raises(ValueError, match="lacks"):
        compile_sequence(GateSequence(shape, gates[:-1]))


def test_direct_dft_methods_agree():
    shape = RegisterShape(3, 3)
    rng = np.random.default_rng(5)
    amps = rng.normal(size=27) + 1j * rng.normal(size=27)
    state = QuditState(shape, amps)
    assert_allclose(direct_dft(state, "sum").amps, direct_dft(state, "fft").amps, atol=1e-12)
    with pytest.raises(ValueError):
        direct_dft(state, "butterfly")


@pytest.mark.parametrize("d,q", [(2, 3), (3, 2), (5, 2)])
def test_accumulated_phase_telescopes_exactly(d, q):
    # symbolic identity: the rational phase on <b|S|a> is a*c/N turns with c
    # the digit-reversed reading of b
    shape = RegisterShape(d, q)
    n = shape.n_amps
    for a in range(n):
        for b in range(n):
            c = sum((b // d**m) % d * d ** (q - 1 - m) for m in range(q))
            assert accumulated_phase_turns(shape, a, b) == Fraction(a * c % n, n)


def _phase_turns_fold(shape, a, b):
    """Reference: the per-gate rational phases summed one Fraction at a time."""
    d, q = shape.d, shape.q
    a_dig = [(a // d**m) % d for m in range(q)]
    b_dig = [(b // d**m) % d for m in range(q)]
    total = Fraction(0)
    for m in range(q):
        total += Fraction(a_dig[m] * b_dig[m], d)
        for l in range(m):
            total += Fraction(a_dig[l] * b_dig[m], d ** (m - l + 1))
    return total % 1


@pytest.mark.parametrize("d,q", [(2, 20), (3, 7), (16, 3), (2, 70)])
def test_accumulated_phase_matches_per_gate_fraction_fold(d, q):
    shape = RegisterShape(d, q, max_amps=d**q)
    rng = random.Random(d * 1000 + q)
    pairs = [(rng.randrange(d**q), rng.randrange(d**q)) for _ in range(64)]
    pairs += [(0, 0), (d**q - 1, d**q - 1)]
    for a, b in pairs:
        got = accumulated_phase_turns(shape, a, b)
        want = _phase_turns_fold(shape, a, b)
        assert got == want
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


def _per_entry_exp_errors(shape, inputs, sequence=None):
    """Reference for _compare_columns: the kernel evaluated entry by entry with exp."""
    n = shape.n_amps
    plan = compile_sequence(sequence or build_fft_sequence(shape))
    cols = dit_reversal_permutation(shape)
    max_entry = max_mod = max_phase = 0.0
    chunk = max(1, min(len(inputs), BATCH_BUDGET // n))
    for start in range(0, len(inputs), chunk):
        batch = inputs[start : start + chunk]
        arr = np.zeros((n, len(batch)), dtype=np.complex128)
        arr[batch, np.arange(len(batch))] = 1.0
        got = plan.run(arr)
        want = np.exp(2j * np.pi * ((batch[:, None] * cols[None, :]) % n) / n) / np.sqrt(n)
        max_entry = max(max_entry, float(np.abs(got - want).max()))
        max_mod = max(max_mod, float(np.abs(np.abs(got) - np.abs(want)).max()))
        max_phase = max(max_phase, float(np.abs(np.angle(got * np.conj(want))).max()))
    return max_entry, max_mod, max_phase


@pytest.mark.parametrize("d,q,seed", [(2, 10, None), (3, 5, None), (4, 7, 17), (32, 2, None)])
def test_verify_report_is_bit_equal_to_per_entry_exp_comparison(d, q, seed):
    shape = RegisterShape(d, q)
    n_samples = 64
    report = verify_fft_equivalence(shape, seed=seed, n_samples=n_samples)
    if seed is None:
        inputs = np.arange(shape.n_amps)
    else:
        inputs = np.random.default_rng(seed).choice(shape.n_amps, size=n_samples, replace=False)
    assert report.exhaustive == (seed is None)
    assert (report.max_entry_err, report.max_mod_err, report.max_phase_err) == _per_entry_exp_errors(
        shape, inputs
    )


@pytest.mark.parametrize("d,q,n_samples", [(5, 4, None), (2, 17, 3)])
def test_verify_chunks_match_the_dense_oracle(monkeypatch, d, q, n_samples):
    # (5, 4) is exhaustive with a short last chunk (625 columns, 104 per
    # chunk); N = 2**17 exceeds the block, so (2, 17) runs one column per chunk
    shape = RegisterShape(d, q)
    n = shape.n_amps
    chunk = max(1, gates_module._VERIFY_BLOCK // n)
    inputs = np.arange(n) if n_samples is None else np.random.default_rng(5).choice(n, n_samples, replace=False)
    assert chunk == 1 or len(inputs) % chunk
    want = _per_entry_exp_errors(shape, inputs)
    dense_shapes = []
    run = gates_module.SequencePlan.run

    def recording_run(self, arr):
        dense_shapes.append(self.shape)
        return run(self, arr)

    monkeypatch.setattr(gates_module.SequencePlan, "run", recording_run)
    report = verify_fft_equivalence(shape, seed=5, n_samples=n_samples or 256)
    assert (report.max_entry_err, report.max_mod_err, report.max_phase_err) == want
    # the dense plan runs only to build the group kernels, never on the register
    assert shape not in dense_shapes


def test_verify_fft_equivalence_exhaustive_small():
    report = verify_fft_equivalence(RegisterShape(3, 4))
    assert report.exhaustive
    assert report.n_inputs == 81
    assert report.order == "as-written"
    assert report.gate_count == 10
    assert report.passed
    assert report.max_entry_err < 1e-10
    keys = set(dataclasses.asdict(report))
    assert {"d", "q", "gate_count", "max_entry_err", "max_mod_err",
            "max_phase_err", "order", "passed", "exhaustive"} <= keys


def test_verify_fft_equivalence_sampled_needs_seed():
    shape = RegisterShape(2, 13)  # 8192 amplitudes, above the exhaustive limit
    with pytest.raises(ValueError):
        verify_fft_equivalence(shape)
    report = verify_fft_equivalence(shape, seed=99, n_samples=32)
    assert not report.exhaustive
    assert report.n_inputs == 32
    assert report.passed


@pytest.mark.parametrize("n_samples", [0, -1])
def test_verify_fft_equivalence_rejects_fewer_than_one_sample(n_samples):
    # zero inputs would pass vacuously
    for shape, seed in [(RegisterShape(2, 13), 5), (RegisterShape(3, 2), None)]:
        with pytest.raises(ValueError, match="n_samples"):
            verify_fft_equivalence(shape, seed=seed, n_samples=n_samples)


def test_verify_fft_equivalence_reports_a_wrong_sequence_once(monkeypatch):
    build = gates_module.build_fft_sequence

    def drop_one_phase_gate(shape):
        seq = build(shape)
        first_phase = next(i for i, g in enumerate(seq.gates) if g.kind == "phase")
        return GateSequence(shape, seq.gates[:first_phase] + seq.gates[first_phase + 1 :])

    calls = []
    compare = gates_module._compare_columns

    def counting_compare(*args):
        calls.append(args)
        return compare(*args)

    monkeypatch.setattr(gates_module, "build_fft_sequence", drop_one_phase_gate)
    monkeypatch.setattr(gates_module, "_compare_columns", counting_compare)
    report = verify_fft_equivalence(RegisterShape(2, 4))
    assert report.passed is False
    assert report.order == "as-written"
    assert len(calls) == 1


def _same_float(a, b):
    return (np.isnan(a) and np.isnan(b)) or float(a).hex() == float(b).hex()


def _phase_cases():
    """Products got · conj(want) for the phase maximum, keyed by what each one exercises."""
    rng = np.random.default_rng(27)
    n = 256
    # a working check: Re near 1/N, angles of rounding size
    typical = (1 + rng.normal(scale=1e-15, size=(4, n))) / n * np.exp(1j * rng.normal(scale=3e-16, size=(4, n)))
    cases = {"typical": typical, "imag all zero": typical.real + 0j, "imag all -0.0": typical.real - 0j}
    for name, entry in [
        ("real -0.0", complex(-0.0, 0.0)),
        ("real -0.0, imag > 0", complex(-0.0, 1e-300)),
        ("real +0.0", complex(0.0, 0.0)),
        ("real +0.0, imag < 0", complex(0.0, -1e-300)),
        ("real < 0", complex(-1e-3, 1e-20)),
        ("real < 0, imag 0", complex(-5e-324, 0.0)),
        ("ratio above 1", complex(1e-3, 2e-3)),
        ("ratio exactly 1", complex(1e-3, -1e-3)),
        ("nan real", complex(np.nan, 1e-18)),
        ("nan imag", complex(1.0 / n, np.nan)),
        ("+inf real", complex(np.inf, 1e-18)),
        ("+inf real and imag", complex(np.inf, np.inf)),
        ("-inf real", complex(-np.inf, 0.0)),
        ("inf imag", complex(1.0 / n, -np.inf)),
        ("subnormal real", complex(5e-324, 1e-300)),
        ("ratio past the float range", complex(1e-300, 1e300)),
        ("subnormal imag", complex(1.0 / n, 5e-324)),
    ]:
        rel = typical.copy()
        rel[2, 100] = entry
        cases[name] = rel
    # ratios one ulp apart at the top, exact ties, and ratios on both sides of the margin
    top = 1e-3
    ulps = top * (1 - np.arange(64) * 2.0**-52)
    edge = top * (1 - gates_module._PHASE_MARGIN) * (1 + np.arange(-32, 32) * 2.0**-52)
    cases["near ties"] = (1 + 1j * np.concatenate([ulps, ulps[::-1], edge, -edge])).reshape(4, -1)
    # every ratio subnormal, or every ratio at most the smallest normal over the margin
    cases["subnormal ratios"] = 1.0 / n + 1j * rng.integers(1, 2**20, size=(4, n)) * 5e-324
    tiny = np.finfo(float).tiny / gates_module._PHASE_MARGIN
    for name, scale in [("largest ratio just below the underflow bound", 0.999), ("just above it", 1.001)]:
        cases[name] = 1 + 1j * tiny * scale * rng.uniform(0.5, 1.0, size=(4, n))
    cases["subnormal real parts"] = rng.integers(1, 100, size=(4, n)) * 5e-324 + 1j * 0.0
    return cases


_PHASE_CASES = _phase_cases()


@pytest.mark.parametrize("name", list(_PHASE_CASES))
def test_phase_max_is_the_plain_arctan2_max(name):
    rel = _PHASE_CASES[name]
    got = gates_module._max_abs_angle(rel.copy(), np.empty(rel.shape))
    assert _same_float(got, np.abs(np.arctan2(rel.imag, rel.real)).max())


def test_phase_max_of_no_entries_is_refused_as_before():
    rel = np.empty((0, 8), dtype=np.complex128)
    with pytest.raises(ValueError, match="zero-size"):
        np.abs(np.arctan2(rel.imag, rel.real)).max()
    with pytest.raises(ValueError, match="zero-size"):
        gates_module._max_abs_angle(rel, np.empty(rel.shape))


def test_phase_max_runs_arctan2_on_the_candidates_only(monkeypatch):
    rel = _PHASE_CASES["typical"]
    sizes = []
    arctan2 = np.arctan2

    def counting_arctan2(y, x, *args, **kwargs):
        sizes.append(np.size(y))
        return arctan2(y, x, *args, **kwargs)

    monkeypatch.setattr(np, "arctan2", counting_arctan2)
    gates_module._max_abs_angle(rel, np.empty(rel.shape))
    assert len(sizes) == 1 and sizes[0] < rel.size // 16


def _drop_first_phase_gate(sequence):
    first_phase = next(i for i, g in enumerate(sequence.gates) if g.kind == "phase")
    return GateSequence(sequence.shape, sequence.gates[:first_phase] + sequence.gates[first_phase + 1 :])


@pytest.mark.parametrize("d,q,n_samples", [(2, 4, None), (3, 3, None), (5, 4, None), (2, 13, 32)])
def test_wrong_sequence_errors_are_the_dense_oracle(d, q, n_samples):
    # large angles take the full arctan2 pass, which the right sequence never needs
    shape = RegisterShape(d, q)
    wrong = _drop_first_phase_gate(build_fft_sequence(shape))
    n = shape.n_amps
    inputs = np.arange(n) if n_samples is None else np.random.default_rng(9).choice(n, n_samples, replace=False)
    errors = gates_module._compare_columns(compile_sequence(wrong), inputs)
    assert errors == _per_entry_exp_errors(shape, inputs, wrong)
    assert errors[2] > 1.0


@pytest.mark.parametrize("d,q,n_samples", [(5, 4, None), (2, 17, 3)])
def test_run_basis_with_a_reused_buffer_is_a_fresh_run(d, q, n_samples):
    # (5, 4) runs 104-column chunks and a short last one; (2, 17) one-column chunks
    shape = RegisterShape(d, q)
    plan = compile_sequence(build_fft_sequence(shape))
    n = shape.n_amps
    chunk = max(1, gates_module._VERIFY_BLOCK // n)
    inputs = np.arange(n) if n_samples is None else np.random.default_rng(5).choice(n, n_samples, replace=False)
    zeros = np.zeros(chunk * n, dtype=np.complex128)
    for start in range(0, len(inputs), chunk):
        batch = inputs[start : start + chunk]
        got = plan.run_basis(batch, zeros)
        np.testing.assert_array_equal(got.view(np.int64), plan.run_basis(batch).view(np.int64))
        assert not zeros.view(np.int64).any()


def _errors_of_chunks(shape, chunks):
    """Per-entry exp reference for recorded (inputs, rows) chunks; a NaN carries to the maximum."""
    n = shape.n_amps
    cols = dit_reversal_permutation(shape)
    errors = []
    for batch, got in chunks:
        want = np.exp(2j * np.pi * ((batch[:, None] * cols[None, :]) % n) / n) / np.sqrt(n)
        errors.append([
            np.abs(got - want).max(),
            np.abs(np.abs(got) - np.abs(want)).max(),
            np.abs(np.angle(got * np.conj(want))).max(),
        ])
    return np.max(errors, axis=0).tolist()


@pytest.mark.parametrize("value", [np.nan, complex(0.0, np.nan), np.inf, complex(0.0, -np.inf)])
def test_a_non_finite_entry_in_a_middle_chunk_fails_verification(monkeypatch, value):
    shape = RegisterShape(2, 10)  # 16 chunks of 64 columns
    chunks = []
    run_basis = gates_module.SequencePlan.run_basis

    def poisoned_run_basis(self, inputs, *args):
        rows = run_basis(self, inputs, *args)
        if len(chunks) == 5:
            rows[3, 17] = value
        chunks.append((inputs, rows.copy()))
        return rows

    monkeypatch.setattr(gates_module.SequencePlan, "run_basis", poisoned_run_basis)
    report = verify_fft_equivalence(shape)
    assert len(chunks) == 16
    assert report.passed is False
    errors = [report.max_entry_err, report.max_mod_err, report.max_phase_err]
    assert all(_same_float(a, b) for a, b in zip(errors, _errors_of_chunks(shape, chunks)))
    if np.isnan(value):
        assert np.isnan(errors).all()
    else:
        assert errors[:2] == [np.inf, np.inf]
        assert not errors[2] < report.tol
