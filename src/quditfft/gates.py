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

The sequence is the specification; ``apply_sequence`` and
``verify_fft_equivalence`` run its compiled plan, which is mixed-radix
Cooley-Tukey in its higher-radix form (Cooley & Tukey 1965; Frigo &
Johnson, "The Design and Implementation of FFTW3", 2005). The plan groups
consecutive qudits hi ... lo, from q-1 down, into stages of k qudits with
d**k <= 16 levels (one qudit per stage when d >= 5). Each stage multiplies
the register in place by a twiddle diagonal, the product of the phase gates
on (l, m') for l in the group and every m' > hi, built by broadcasting their
small tables. It then makes one GEMM with the group's d**k-point kernel,
which holds the group's own Fourier and phase gates; the GEMM contracts the
leading digits a_hi ... a_lo and appends b_hi ... b_lo as the last axis.
After the last stage the register is back in natural digit order, with no
transpose or copy. Verification runs it input-pruned (Markel 1971) on one-hot GEMM rows,
since a product with kernel rows would round differently. ``apply_fourier_gate`` and
``apply_phase_gate`` stay as the reference the plan is tested against.

Sign convention: the DFT kernel here is exp(+i 2π a c / N) / sqrt(N), the
conjugate of the engineering FFT convention, so the classical cross-check
route is the orthonormal inverse FFT. The d-point Fourier gate and the
N-point reference that ``direct_dft`` and ``verify_fft_equivalence`` use both
come from :func:`quditfft.register.dft_kernel`, which gathers every entry
from one table of the n roots of unity at (a·c) mod n.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .constants import BATCH_BUDGET
from .register import (
    QuditState,
    RegisterShape,
    check_amplitude_count,
    dft_exponents,
    dft_kernel,
    dft_table,
    dit_reversal_permutation,
)

# Exhaustive basis-vector verification up to this many amplitudes; above it,
# verification samples a seeded subset of basis inputs.
EXHAUSTIVE_LIMIT = 4096

# A plan stage covers as many consecutive qudits k as keep its kernel at
# d**k <= 16 levels: four qubits, two qutrits or ququarts, one qudit for d >= 5.
# One 16-level GEMM replaces k small ones and k-1 full-register twiddle passes.
# A cap of 32 ran no faster: 48.9 vs 45.6 ms at d=2, q=20 (three 32-level
# stages) and 22.4 vs 19.9 ms at d=3, q=12 (27 levels), 2-vCPU host.
_STAGE_LEVELS = 16

# Entries per block of verified columns. The block size sets which operand numpy's
# temporary elision puts first in the phase product (see _compare_columns), so a new
# size can move the last bit of max_phase_err.
_VERIFY_BLOCK = 2**16

# An entry whose |Im|/Re lies below (1 - _PHASE_MARGIN) times the largest ratio cannot
# hold the largest angle: for ratios up to 1 the angle arctan(|Im|/Re) keeps at least
# half of a ratio's relative gap, and arctan2 errs by a few ulps (~1e-15), a billionth of it.
_PHASE_MARGIN = 1e-6


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
    """d x d Fourier kernel F[b, a] = exp(+i 2π a b / d) / sqrt(d), from :func:`dft_kernel`.

    Raises ``ValueError`` before allocating when d*d exceeds the register cap.
    """
    check_amplitude_count((d, d), f"{d}x{d} Fourier kernel")
    digits = np.arange(d)
    return dft_kernel(d, digits, digits)


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


def _check_qudit_index(shape: RegisterShape, m: int) -> None:
    if not 0 <= m < shape.q:
        raise ValueError(f"qudit index {m} out of range for q={shape.q}")


def _register_tensor(state: QuditState) -> np.ndarray:
    # The most significant digit comes first, so qudit m (weight d**m) sits on
    # axis q-1-m.
    return state.amps.reshape((state.shape.d,) * state.shape.q)


def apply_fourier_gate(state: QuditState, m: int) -> QuditState:
    """Fourier-transform qudit m: |a_m> -> sum_b exp(+i 2π a_m b / d) |b> / sqrt(d)."""
    _check_qudit_index(state.shape, m)
    axis = state.shape.q - 1 - m
    t = np.tensordot(fourier_gate_matrix(state.shape.d), _register_tensor(state), axes=([1], [axis]))
    return QuditState(state.shape, np.moveaxis(t, 0, axis).reshape(-1))


def apply_phase_gate(state: QuditState, l: int, m: int) -> QuditState:
    """Phase basis state |..a_l..a_m..> by exp(+i 2π a_l a_m / d**(m-l+1))."""
    _check_qudit_index(state.shape, m)
    if l is None or not 0 <= l < m:
        raise ValueError(f"phase gate needs 0 <= l < m, got l={l}, m={m}")
    d, q = state.shape.d, state.shape.q
    bshape = [1] * q
    bshape[q - 1 - m] = d
    bshape[q - 1 - l] = d
    # the table is symmetric, so the (x_m, x_l) axis order needs no transpose
    t = _register_tensor(state) * phase_gate_table(d, m - l).reshape(bshape)
    return QuditState(state.shape, t.reshape(-1))


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


@dataclass(frozen=True)
class SequencePlan:
    """A gate sequence compiled into one twiddle multiply and one GEMM per stage.

    Stage s covers a group of k consecutive qudits hi ... lo, the groups taken
    from qudit q-1 down. ``kernels[s]`` is the group's (d**k, d**k) kernel
    K[j, c] = <c|G|j>, where G is the group's own Fourier and phase gates and
    j, c index the group's digits with a_hi most significant; for k = 1 it is
    the d-point Fourier kernel. ``twiddles[s]`` holds one (d**k, d) table per
    already-transformed qudit m' = q-1 ... hi+1, the product of the
    sequence's phase gates on (l, m') over l in the group; it is empty when no
    such phase gate exists.
    """

    shape: RegisterShape
    kernels: tuple[np.ndarray, ...]
    twiddles: tuple[tuple[np.ndarray, ...], ...]

    def run(self, arr: np.ndarray) -> np.ndarray:
        """Apply the sequence to an (N,) vector or an (N, B) column stack.

        Returns an (N,) vector or a (B, N) row stack in natural digit order;
        ``arr`` itself is never written.
        """
        t = arr
        for kernel, tables in zip(self.kernels, self.twiddles):
            levels = len(kernel)
            # Layout here: (a_hi, ..., a_0, batch, b_{q-1}, ..., b_{hi+1}).
            if tables:
                # Only GEMM outputs reach this multiply: the first stage (from
                # qudit q-1) never has phase gates, so the caller's array is safe.
                tw = _twiddle(tables)
                t = t.reshape(levels, -1, tw.shape[1])
                t *= tw[:, None, :]
                del tw  # freed before the GEMM allocates its output
            # contract a_hi ... a_lo and append b_hi ... b_lo as the last axis
            t = _matmul_rows(t.reshape(levels, -1).T, kernel)
        return t.reshape(arr.shape[1:] + (self.shape.n_amps,))

    def run_basis(self, inputs: np.ndarray, zeros: np.ndarray | None = None) -> np.ndarray:
        """``run`` on the one-hot columns of ``inputs``: the same (B, N) rows, bit for bit.

        Until a stage contracts a_hi ... a_lo, column a is zero off j = (a // d**lo) % d**k,
        so only its outputs so far, u, are carried: twiddled by rows tw[j], then fed to the
        GEMM one-hot at j, as u ⊗ K[j] would not round through FMA as the GEMM does.
        The one-hot rows are scattered into ``zeros``, a zeroed complex buffer of at least
        B·N entries (a fresh one when None); each stage zeroes again only what it
        scattered, so the buffer comes back all zero and can serve the next call.
        """
        if zeros is None:
            zeros = np.zeros(len(inputs) * self.shape.n_amps, dtype=np.complex128)
        u = np.ones((len(inputs), 1), dtype=np.complex128)
        b = np.arange(len(inputs))
        weight = self.shape.n_amps
        for kernel, tables in zip(self.kernels, self.twiddles):
            levels = len(kernel)
            weight //= levels
            j = inputs // weight % levels
            if tables:
                u = u * _twiddle(tuple(table[j] for table in tables))
            rows = zeros[: u.size * levels].reshape(u.shape + (levels,))
            rows[b, :, j] = u
            u = _matmul_rows(rows.reshape(-1, levels), kernel).reshape(len(u), -1)
            rows[b, :, j] = 0
        return u


def _matmul_rows(rows: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """rows @ kernel in blocks of at most BATCH_BUDGET outputs, each row as in one GEMM.

    Two OpenBLAS threads touch memory in proportion to a call's rows: the fft bench peak RSS
    read 190.8 MiB unblocked, 186.3 in these blocks, 179.1 in 2**16 (d=2, q=20 15% slower).
    """
    out = np.empty((len(rows), len(kernel)), dtype=np.complex128)
    step = max(1, BATCH_BUDGET // len(kernel))
    for start in range(0, len(rows), step):
        np.matmul(rows[start : start + step], kernel, out=out[start : start + step])
    return out


def _twiddle(tables: tuple[np.ndarray, ...]) -> np.ndarray:
    """Broadcast product tw[x, (b_{q-1}, ..., b_{hi+1})] of one stage's tables."""
    # Prepend the more significant digits, so the long axis stays innermost.
    tw = tables[-1]
    for table in tables[-2::-1]:
        tw = (table[:, :, None] * tw[:, None, :]).reshape(len(tw), -1)
    return tw


def _stage_sizes(d: int, q: int) -> tuple[int, ...]:
    """Qudits per stage, most significant group first; the last group takes the rest."""
    k = 1
    while k < q and d ** (k + 1) <= _STAGE_LEVELS:
        k += 1
    return (k,) * (q // k) + ((q % k,) if q % k else ())


def _plan(
    shape: RegisterShape, factors: dict[tuple[int, int], np.ndarray], sizes: tuple[int, ...]
) -> SequencePlan:
    """Plan with stages of ``sizes`` qudits from the phase factors keyed by (l, m)."""
    d, q = shape.d, shape.q
    kernels, twiddles = [], []
    hi = q - 1
    for k in sizes:
        lo, levels = hi - k + 1, d**k
        if k == 1:
            kernels.append(fourier_gate_matrix(d))
        else:
            # The group's own gates, run one qudit per stage on every basis
            # input of the group: row j of the result is G|j>.
            inner = {(l - lo, m - lo): f for (l, m), f in factors.items() if lo <= l and m <= hi}
            group = RegisterShape(d, k, max_amps=levels)
            kernels.append(_plan(group, inner, (1,) * k).run(np.eye(levels, dtype=np.complex128)))
        ones = np.ones((levels, d), dtype=np.complex128)
        tables = []
        for mp in range(q - 1, hi, -1):
            table = None
            for l in range(hi, lo - 1, -1):
                if (l, mp) in factors:
                    # factor[a_l, b_m'], broadcast over the group's other digits
                    bshape = [1] * k + [d]
                    bshape[hi - l] = d
                    f = factors[(l, mp)].reshape(bshape)
                    table = f if table is None else table * f
            if table is None:
                tables.append(ones)
            else:
                tables.append(np.broadcast_to(table, (d,) * (k + 1)).reshape(levels, d))
        twiddles.append(tuple(tables) if any(t is not ones for t in tables) else ())
        hi = lo - 1
    return SequencePlan(shape, tuple(kernels), tuple(twiddles))


def compile_sequence(sequence: GateSequence) -> SequencePlan:
    """Fold a gate sequence into its :class:`SequencePlan`.

    Diagonal phase gates commute with each other and with Fourier gates on
    other qudits, so every phase gate on (l, m') can move to just before the
    Fourier gate on l, as long as it fires after the one on m' (which it
    reads in the transformed basis) and before the one on l. Raises
    ``ValueError`` naming the first gate that breaks this or that puts the
    Fourier gates out of the order q-1 ... 0, each once.
    """
    d, q = sequence.shape.d, sequence.shape.q
    factors: dict[tuple[int, int], np.ndarray] = {}
    spans: dict[int, np.ndarray] = {}  # one phase table per span, shared by its gates
    next_fourier = q - 1  # Fourier gates above this qudit have fired
    for gate in sequence.gates:
        if gate.m >= q:
            raise ValueError(f"cannot compile {gate}: qudit {gate.m} out of range for q={q}")
        if gate.kind == "fourier":
            if gate.m != next_fourier:
                raise ValueError(
                    f"cannot compile {gate}: Fourier gates must act on qudits "
                    f"q-1 ... 0 in that order, each once (expected qudit {next_fourier})"
                )
            next_fourier -= 1
        elif not gate.l <= next_fourier < gate.m:
            raise ValueError(
                f"cannot compile {gate}: a phase gate must fire after the Fourier "
                f"gate on qudit {gate.m} and before the one on qudit {gate.l}"
            )
        else:
            key, span = (gate.l, gate.m), gate.m - gate.l
            table = spans.get(span)
            if table is None:
                table = spans[span] = phase_gate_table(d, span)
            factors[key] = factors[key] * table if key in factors else table
    if next_fourier >= 0:
        raise ValueError(
            f"cannot compile: the sequence lacks {GateDescriptor('fourier', next_fourier)}"
        )
    return _plan(sequence.shape, factors, _stage_sizes(d, q))


def apply_sequence(state: QuditState, sequence: GateSequence) -> QuditState:
    """Apply a gate sequence in order (first descriptor first).

    Runs the sequence's compiled :class:`SequencePlan`; raises ``ValueError``
    for a sequence the plan cannot represent.
    """
    if sequence.shape != state.shape:
        raise ValueError("sequence and state have different register shapes")
    return QuditState(state.shape, compile_sequence(sequence).run(state.amps))


def accumulated_phase_turns(shape: RegisterShape, a: int, b: int) -> Fraction:
    """Exact phase (in turns, mod 1) the sequence puts on amplitude <b|S|a>.

    Sums the per-gate rational phases a_m b_m / d + a_l b_m / d**(m-l+1) as
    one integer numerator over their common denominator d**q; used to prove
    the telescoping identity symbolically.
    """
    d, q = shape.d, shape.q
    power = [d**k for k in range(q + 1)]
    a_dig = [(a // power[m]) % d for m in range(q)]
    b_dig = [(b // power[m]) % d for m in range(q)]
    # Phase gate (l, m) adds a_l b_m / d**(m-l+1) = a_l b_m d**(q-1-m+l) / d**q;
    # the Fourier gate on m is the l = m term.
    total = 0
    for m in range(q):
        if b_dig[m]:
            total += b_dig[m] * sum(a_dig[l] * power[q - 1 - m + l] for l in range(m + 1))
    return Fraction(total % power[q], power[q])


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
    chunk = max(1, min(n, BATCH_BUDGET // n))
    cols = np.arange(n)
    for start in range(0, n, chunk):
        rows = np.arange(start, min(start + chunk, n))
        out[start : start + len(rows)] = dft_kernel(n, rows, cols) @ state.amps
    return QuditState(state.shape, out)


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


def _max_abs_angle(rel: np.ndarray, scratch: np.ndarray) -> float:
    """max |arctan2(rel.imag, rel.real)|, bit for bit, with arctan2 run on few entries.

    Where every Re > 0, the angle is arctan(|Im|/Re), which rises with the ratio, so
    arctan2 runs only on the entries within _PHASE_MARGIN of the largest ratio. It runs
    on all of them when some Re is <= 0 or NaN, or the largest ratio is above 1, NaN or
    so small that its division underflowed. An Re of +inf has ratio 0 and angle 0, so
    it cannot hold the maximum. ``scratch`` is a real array of rel's shape.
    """
    if rel.real.min() > 0:
        with np.errstate(invalid="ignore", over="ignore"):  # inf / inf, or past the float range
            ratio = np.divide(np.abs(rel.imag, out=scratch), rel.real, out=scratch)
        top = ratio.max()
        if np.finfo(float).tiny / _PHASE_MARGIN <= top <= 1:
            rel = rel[ratio >= top * (1 - _PHASE_MARGIN)]
    return float(np.abs(np.arctan2(rel.imag, rel.real)).max())


def _compare_columns(plan: SequencePlan, inputs: np.ndarray) -> tuple[float, float, float]:
    """Max entry/modulus/phase error of reversed-readout sequence columns vs kernel.

    Columns come from the input-pruned :meth:`SequencePlan.run_basis`; its GEMM rows stay
    one-hot because a product with kernel rows would round differently from the dense run.
    A NaN anywhere makes the error it enters NaN.
    """
    n = plan.shape.n_amps
    # Output column c holds DFT entry perm[c] (perm is an involution), so the
    # kernel is evaluated at the permuted columns instead of gathering got.
    cols = dit_reversal_permutation(plan.shape)
    # Kernel entries and their moduli are gathered from one n-entry table, the
    # same values dft_kernel would give, without a per-chunk exponential.
    table = dft_table(n)
    moduli = np.abs(table)
    maxima = np.zeros(3)  # entry, modulus, phase; np.maximum keeps a NaN
    chunk = max(1, min(len(inputs), _VERIFY_BLOCK // n))
    # Four buffers serve every chunk: the kernel entries, later the complex
    # error terms; the real error terms; the table indices; and run_basis's
    # one-hot rows. Fresh (B, N) arrays per chunk would leave glibc's heap top
    # to be trimmed and faulted in again: one sampled (6, 6) check in a fresh
    # process took 25.8k minor faults with a fresh index array, 2.2k-2.6k without.
    want_buf = np.empty((chunk, n), dtype=np.complex128)
    err_buf = np.empty((chunk, n))
    idx_buf = np.empty((chunk, n), dtype=np.int64)
    zeros = np.zeros(chunk * n, dtype=np.complex128)
    for start in range(0, len(inputs), chunk):
        batch = inputs[start : start + chunk]
        got = plan.run_basis(batch, zeros)
        idx = dft_exponents(n, batch, cols, out=idx_buf[: len(batch)])
        want, err = want_buf[: len(batch)], err_buf[: len(batch)]
        # idx is already reduced mod n, so "clip" never acts; it spares the
        # copy that take makes of ``out`` under the default bounds check
        np.take(table, idx, out=want, mode="clip")
        # phase: angle(got · conj(want)) = arctan2 of its parts. The product
        # keeps its one temporary: for large chunks numpy reuses the conj
        # array and swaps the factors, which moves the last bit.
        phase = _max_abs_angle(got * np.conj(want), err)
        # entry: |got - want|
        np.subtract(got, want, out=want)
        entry = np.abs(want, out=err).max()
        # modulus: |got| (into the real parts of the now free want) - |want|
        np.abs(got, out=want.real)
        np.subtract(want.real, np.take(moduli, idx, out=err, mode="clip"), out=err)
        np.maximum(maxima, (entry, np.abs(err, out=err).max(), phase), out=maxima)
    max_entry, max_mod, max_phase = maxima.tolist()
    return max_entry, max_mod, max_phase


def verify_fft_equivalence(
    shape: RegisterShape,
    *,
    tol: float = 1e-10,
    seed: int | None = None,
    n_samples: int = 256,
) -> EquivalenceReport:
    """Check that digit-reversed readout of the gate sequence equals DFT_N.

    Basis inputs are enumerated exhaustively up to ``EXHAUSTIVE_LIMIT``
    amplitudes and sampled (seeded, >= ``n_samples`` inputs) above it. The
    sequence is checked once, in the order written; a wrong sequence fails.
    Raises ``ValueError`` for ``n_samples < 1``, which would check nothing.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    n = shape.n_amps
    if n <= EXHAUSTIVE_LIMIT:
        inputs = np.arange(n)
        exhaustive = True
    else:
        if seed is None:
            raise ValueError("seed is required when sampling basis inputs above the exhaustive limit")
        rng = np.random.default_rng(seed)
        inputs = rng.choice(n, size=min(n_samples, n), replace=False)
        exhaustive = False

    sequence = build_fft_sequence(shape)
    max_entry, max_mod, max_phase = _compare_columns(compile_sequence(sequence), inputs)
    return EquivalenceReport(
        d=shape.d,
        q=shape.q,
        gate_count=len(sequence.gates),
        n_inputs=len(inputs),
        exhaustive=exhaustive,
        order="as-written",
        max_entry_err=max_entry,
        max_mod_err=max_mod,
        max_phase_err=max_phase,
        tol=tol,
        passed=max_entry < tol,
    )
