"""Qudit gates for the mixed-radix fast Fourier transform.

Two gate families suffice to factor the N-point discrete Fourier transform
over a register of q qudits (N = d**q):

* a single-qudit Fourier gate acting on qudit m, with kernel
  exp(+i 2π a_m b_m / d) / sqrt(d), and
* a two-qudit diagonal phase gate on qudits l < m that multiplies basis state
  amplitudes by exp(+i 2π a_l a_m / d**(m-l+1)).

The full sequence contains q(q+1)/2 gates arranged in passes: the Fourier gate
on the most significant qudit first, each phase gate firing after the Fourier
gate on its higher qudit and before the one on its lower qudit, the Fourier
gate on qudit 0 last.  The composition equals DFT_N once the output digit
string is read in reverse order; the reversal is applied as an index
permutation on readout, never as extra gates.

Sign convention: the DFT kernel here is exp(+i 2π a c / N) / sqrt(N), the
conjugate of the engineering FFT convention, so the classical cross-check
route is the orthonormal inverse FFT.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .register import QuditState, RegisterShape, dit_reversal_permutation

# Exhaustive basis-vector verification up to this many amplitudes; above it,
# verification samples a seeded subset of basis inputs.
EXHAUSTIVE_LIMIT = 4096

# Cap on scratch size (complex entries) for batched matrix-free products.
_BATCH_BUDGET = 2**22


@dataclass(frozen=True)
class GateDescriptor:
    """One gate in a sequence: kind 'fourier' (qudit m) or 'phase' (qudits l < m)."""

    kind: str
    m: int
    l: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("fourier", "phase"):
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind == "phase":
            if self.l is None:
                raise ValueError("phase gate needs both qudit indices")
            if not 0 <= self.l < self.m:
                raise ValueError(f"phase gate needs l < m, got l={self.l}, m={self.m}")
        elif self.l is not None:
            raise ValueError("fourier gate takes a single qudit index")


@dataclass(frozen=True)
class GateSequence:
    shape: RegisterShape
    gates: tuple[GateDescriptor, ...]


def fourier_gate_matrix(d: int) -> np.ndarray:
    """d x d Fourier kernel F[b, a] = exp(+i 2π a b / d) / sqrt(d).

    Angles are reduced to exact rationals of a turn before exponentiation so
    entries like -1 and ±i are accurate to machine precision.
    """
    prods = np.outer(np.arange(d), np.arange(d)) % d
    return np.exp(2j * np.pi * prods / d) / np.sqrt(d)


def phase_gate_table(d: int, span: int) -> np.ndarray:
    """Phase factors exp(+i 2π x_l x_m / d**(span+1)) indexed by (x_l, x_m).

    ``span`` = m - l >= 1. The table is symmetric in its two indices.
    """
    if span < 1:
        raise ValueError(f"phase gate span must be >= 1, got {span}")
    # Every product is at most (d-1)**2 < d**(span+1), so no reduction modulo
    # the denominator is needed; dividing by a float keeps huge spans from
    # overflowing int64.
    prods = np.outer(np.arange(d), np.arange(d))
    return np.exp(2j * np.pi * prods / float(d ** (span + 1)))


def _axis_of(shape: RegisterShape, m: int, lead: int) -> int:
    # Reshaped tensors put the most significant digit on the first register
    # axis, so qudit m (weight d**m) sits at axis q-1-m after ``lead`` batch axes.
    return lead + shape.q - 1 - m


def _apply_fourier_raw(arr: np.ndarray, shape: RegisterShape, m: int) -> np.ndarray:
    """Apply the single-qudit Fourier kernel to qudit m. ``arr`` is (..., N)."""
    lead = arr.shape[:-1]
    t = arr.reshape(lead + (shape.d,) * shape.q)
    axis = _axis_of(shape, m, len(lead))
    t = np.moveaxis(np.tensordot(fourier_gate_matrix(shape.d), t, axes=([1], [axis])), 0, axis)
    return np.ascontiguousarray(t).reshape(lead + (shape.n_amps,))


def _apply_phase_raw(arr: np.ndarray, shape: RegisterShape, l: int, m: int) -> np.ndarray:
    """Apply the two-qudit diagonal phase gate to qudits l < m. ``arr`` is (..., N)."""
    lead = arr.shape[:-1]
    d = shape.d
    t = arr.reshape(lead + (d,) * shape.q)
    ax_l = _axis_of(shape, l, len(lead))
    ax_m = _axis_of(shape, m, len(lead))  # ax_m < ax_l since l < m
    table = phase_gate_table(d, m - l)
    bshape = [1] * t.ndim
    bshape[ax_m] = d
    bshape[ax_l] = d
    # table is symmetric, so the (x_m, x_l) axis order needs no transpose
    t = t * table.reshape(bshape)
    return t.reshape(lead + (shape.n_amps,))


def _apply_gate_raw(arr: np.ndarray, shape: RegisterShape, gate: GateDescriptor) -> np.ndarray:
    if gate.kind == "fourier":
        return _apply_fourier_raw(arr, shape, gate.m)
    return _apply_phase_raw(arr, shape, gate.l, gate.m)


def _check_qudit_index(shape: RegisterShape, m: int) -> None:
    if not 0 <= m < shape.q:
        raise ValueError(f"qudit index {m} out of range for q={shape.q}")


def apply_fourier_gate(state: QuditState, m: int) -> QuditState:
    """Fourier-transform qudit m: |a_m> -> sum_b exp(+i 2π a_m b / d) |b> / sqrt(d)."""
    _check_qudit_index(state.shape, m)
    return QuditState(state.shape, _apply_fourier_raw(state.amps, state.shape, m))


def apply_phase_gate(state: QuditState, l: int, m: int) -> QuditState:
    """Phase basis state |..a_l..a_m..> by exp(+i 2π a_l a_m / d**(m-l+1))."""
    _check_qudit_index(state.shape, m)
    if l is None or not 0 <= l < m:
        raise ValueError(f"phase gate needs 0 <= l < m, got l={l}, m={m}")
    return QuditState(state.shape, _apply_phase_raw(state.amps, state.shape, l, m))


def build_fft_sequence(shape: RegisterShape) -> GateSequence:
    """Gate list whose composition, followed by digit-reversed readout, is DFT_N.

    Pass structure (first gate applied first): for mm = q-1 down to 1, the
    Fourier gate on qudit mm followed by phase gates coupling qudit mm-1 to
    every already-transformed qudit (m' = q-1 down to mm); finally the Fourier
    gate on qudit 0. Total q(q+1)/2 gates. Every phase gate on (l, m) fires
    after the Fourier gate on m and before the one on l, which is what makes
    the accumulated phase telescope to 2π a c / N.
    """
    gates: list[GateDescriptor] = []
    for mm in range(shape.q - 1, -1, -1):
        gates.append(GateDescriptor("fourier", mm))
        if mm > 0:
            for mp in range(shape.q - 1, mm - 1, -1):
                gates.append(GateDescriptor("phase", mp, mm - 1))
    return GateSequence(shape, tuple(gates))


def apply_sequence(state: QuditState, sequence: GateSequence) -> QuditState:
    """Apply a gate sequence in order (first descriptor first)."""
    if sequence.shape != state.shape:
        raise ValueError("sequence and state have different register shapes")
    amps = state.amps
    for gate in sequence.gates:
        amps = _apply_gate_raw(amps, state.shape, gate)
    return QuditState(state.shape, amps)


def accumulated_phase_turns(shape: RegisterShape, a: int, b: int) -> Fraction:
    """Exact phase (in turns, mod 1) the sequence puts on amplitude <b|S|a>.

    Sums the per-gate rational phases a_m b_m / d + a_l b_m / d**(m-l+1) using
    integer arithmetic; used to prove the telescoping identity symbolically.
    """
    d, q = shape.d, shape.q
    a_dig = [(a // d**m) % d for m in range(q)]
    b_dig = [(b // d**m) % d for m in range(q)]
    total = Fraction(0)
    for m in range(q):
        total += Fraction(a_dig[m] * b_dig[m], d)
        for l in range(m):
            total += Fraction(a_dig[l] * b_dig[m], d ** (m - l + 1))
    return total % 1


def direct_dft(state: QuditState, method: str = "sum") -> QuditState:
    """Reference N-point transform out[c] = sum_a exp(+i 2π a c / N) x[a] / sqrt(N).

    ``method='sum'`` evaluates the kernel directly in O(N^2) (row-chunked to
    bound memory); ``method='fft'`` cross-checks via the orthonormal inverse
    FFT, which implements the same kernel.
    """
    n = state.shape.n_amps
    if method == "fft":
        return QuditState(state.shape, np.fft.ifft(state.amps, norm="ortho"))
    if method != "sum":
        raise ValueError(f"unknown method {method!r}")
    out = np.empty(n, dtype=np.complex128)
    chunk = max(1, min(n, _BATCH_BUDGET // n))
    cols = np.arange(n)
    for start in range(0, n, chunk):
        rows = np.arange(start, min(start + chunk, n))
        kernel = np.exp(2j * np.pi * ((rows[:, None] * cols[None, :]) % n) / n)
        out[start : start + len(rows)] = kernel @ state.amps
    return QuditState(state.shape, out / np.sqrt(n))


@dataclass
class EquivalenceReport:
    """Outcome of comparing the gate sequence against the reference transform."""

    d: int
    q: int
    gate_count: int
    n_inputs: int
    exhaustive: bool
    order: str
    max_entry_err: float
    max_mod_err: float
    max_phase_err: float
    tol: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "q": self.q,
            "gate_count": self.gate_count,
            "n_inputs": self.n_inputs,
            "exhaustive": self.exhaustive,
            "order": self.order,
            "max_entry_err": self.max_entry_err,
            "max_mod_err": self.max_mod_err,
            "max_phase_err": self.max_phase_err,
            "tol": self.tol,
            "passed": self.passed,
        }


def _compare_columns(
    shape: RegisterShape, gates: Iterable[GateDescriptor], inputs: np.ndarray
) -> tuple[float, float, float]:
    """Max entry/modulus/phase error of reversed-readout sequence columns vs kernel."""
    n = shape.n_amps
    perm = dit_reversal_permutation(shape)
    cols = np.arange(n)
    max_entry = max_mod = max_phase = 0.0
    chunk = max(1, min(len(inputs), _BATCH_BUDGET // n))
    for start in range(0, len(inputs), chunk):
        batch = inputs[start : start + chunk]
        arr = np.zeros((len(batch), n), dtype=np.complex128)
        arr[np.arange(len(batch)), batch] = 1.0
        for gate in gates:
            arr = _apply_gate_raw(arr, shape, gate)
        got = arr[:, perm]
        want = np.exp(2j * np.pi * ((batch[:, None] * cols[None, :]) % n) / n) / np.sqrt(n)
        diff = got - want
        max_entry = max(max_entry, float(np.abs(diff).max()))
        max_mod = max(max_mod, float(np.abs(np.abs(got) - np.abs(want)).max()))
        rel_phase = np.angle(got * np.conj(want))
        max_phase = max(max_phase, float(np.abs(rel_phase).max()))
    return max_entry, max_mod, max_phase


def verify_fft_equivalence(
    shape: RegisterShape,
    *,
    tol: float = 1e-10,
    seed: int | None = None,
    n_samples: int = 256,
    exhaustive_limit: int = EXHAUSTIVE_LIMIT,
) -> EquivalenceReport:
    """Check that digit-reversed readout of the gate sequence equals DFT_N.

    Basis inputs are enumerated exhaustively up to ``exhaustive_limit``
    amplitudes and sampled (seeded, >= ``n_samples`` inputs) above it. If the
    as-written gate order fails, the reversed order is tried and the report
    says so in its ``order`` field; the sequence is never silently reordered.
    """
    n = shape.n_amps
    if n <= exhaustive_limit:
        inputs = np.arange(n)
        exhaustive = True
    else:
        if seed is None:
            raise ValueError("seed is required when sampling basis inputs above the exhaustive limit")
        rng = np.random.default_rng(seed)
        inputs = rng.choice(n, size=min(n_samples, n), replace=False)
        exhaustive = False

    sequence = build_fft_sequence(shape)
    report: EquivalenceReport | None = None
    for order, gates in (("as-written", sequence.gates), ("reversed", sequence.gates[::-1])):
        max_entry, max_mod, max_phase = _compare_columns(shape, gates, inputs)
        report = EquivalenceReport(
            d=shape.d,
            q=shape.q,
            gate_count=len(sequence.gates),
            n_inputs=len(inputs),
            exhaustive=exhaustive,
            order=order,
            max_entry_err=max_entry,
            max_mod_err=max_mod,
            max_phase_err=max_phase,
            tol=tol,
            passed=max_entry < tol,
        )
        if report.passed:
            break
    assert report is not None
    return report
