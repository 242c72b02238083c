"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload fft --seed 1 --seconds 38 --trace 0

Run from the repository root. The package is imported from ``src/``; without
it the script exits with status 2 and prints no result.

The run sets up (import, input generation, a warm-up pass over the workload's
tiny job list), then repeats the workload's fixed job list in rounds until
about ``--seconds`` have passed: the last round is started only if it should
end nearer to ``--seconds`` than stopping before it would. Each job is timed
from outside and its output is checked after the clock stops. With ``--trace 1`` every second round also
records a span around each call into the package; those rounds give the
per-layer metrics and the untraced ones the tracing overhead.

Lines before the last describe the environment and every metric by name and
unit. The last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``. The end-to-end
times and rates are totals over the whole run's untraced rounds
(``setup_s``: the median of seven set-ups); per-layer metrics are medians over
the traced rounds. The full record, and with
``--trace 1`` every span, go to ``bench/out/``. The exit status is 0 when
every check passed, 1 when one failed, 2 when the run could not start.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

from harness import NO_TRACE, Tracer, run_round  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = BENCH / "out"
WORKLOADS = ("fft", "pulse", "trap")
SETUP_SAMPLES = 7  # this run's own set-up plus six in fresh processes
REFERENCE_REPEATS = 3  # np.fft.ifft timings per input, median taken

# Workload-specific names of the two end-to-end rates: (name, unit, scale).
RATE_NAMES = {
    "fft": {
        "batched": ("verify_cols_per_s", "col/s", 1.0),
        "single": ("transform_mamps_per_s", "Mamp/s", 1e-6),
    },
    "pulse": {
        "batched": ("sweep_points_per_s", "point/s", 1.0),
        "single": ("pulse_calls_per_s", "call/s", 1.0),
    },
    "trap": {
        "batched": ("trap_verify_runs_per_s", "run/s", 1.0),
        "single": ("trap_state_runs_per_s", "run/s", 1.0),
    },
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "batched_items_per_s": "1/s",
    "single_items_per_s": "1/s",
}

_VERIFY_DS = (2, 3, 4, 5, 6)
_IFFT_DS = (2, 3, 4, 16)
_WAVEPACKET = ("free_evolve", "change_basis", "dispersion_fidelity")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("gates.apply_sequence.busy_s", "s", "lower"),
    ("gates.apply_sequence.gate_apps", "count", "lower"),
    ("gates.apply_sequence.ns_per_amp_gate", "ns", "lower"),
    ("gates.apply_sequence.bytes_computed", "B", "lower"),
    *[(f"gates.apply_sequence.ifft_ratio.d{d}", "x", "lower") for d in _IFFT_DS],
    ("gates.build_fft_sequence.busy_s", "s", "lower"),
    ("register.dit_reversal_permutation.busy_s", "s", "lower"),
    ("gates.verify_fft_equivalence.busy_s", "s", "lower"),
    ("gates.verify_fft_equivalence.columns", "count", "higher"),
    ("gates.verify_fft_equivalence.us_per_col", "us", "lower"),
    ("gates.verify_fft_equivalence.retries", "count", "lower"),
    ("gates.verify_fft_equivalence.first_try_ratio", "share", "higher"),
    ("gates.verify_fft_equivalence.err_over_tol", "x", "lower"),
    ("gates.accumulated_phase_turns.busy_s", "s", "lower"),
    ("gates.accumulated_phase_turns.pairs", "count", "higher"),
    ("pulses.selectivity_sweep.busy_s", "s", "lower"),
    ("pulses.selectivity_sweep.points", "count", "higher"),
    ("pulses.integrate_full.busy_s", "s", "lower"),
    ("pulses.integrate_full.calls", "count", "higher"),
    ("pulses.integrate_two_level.busy_s", "s", "lower"),
    ("pulses.integrate_two_level.calls", "count", "higher"),
    ("pulses.rk4_steps", "count", "lower"),
    ("pulses.us_per_rk4_step", "us", "lower"),
    *[(f"wavepacket.{f}.{s}", u, b) for f in _WAVEPACKET
      for s, u, b in (("busy_s", "s", "lower"), ("calls", "count", "higher"))],
    ("pulses.two_level_err", "abs", "lower"),
    ("pulses.leakage_rel_dev", "rel", "lower"),
    ("iontrap.verify_hybrid_gate.busy_s", "s", "lower"),
    *[(f"iontrap.verify_hybrid_gate.d{d}.busy_s", "s", "lower") for d in _VERIFY_DS],
    ("iontrap.verify_hybrid_gate.pulses", "count", "lower"),
    ("iontrap.verify_hybrid_gate.us_per_pulse", "us", "lower"),
    ("iontrap.verify_hybrid_gate.fidelity_gap", "abs", "lower"),
    ("iontrap.verify_hybrid_gate.trap_residual_max", "abs", "lower"),
    ("iontrap.build_phase_gate_schedule.busy_s", "s", "lower"),
    ("iontrap.execute_schedule.busy_s", "s", "lower"),
    ("iontrap.execute_schedule.pulses", "count", "lower"),
    ("iontrap.execute_schedule.us_per_pulse", "us", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "share", "higher"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pin_blas_threads() -> int:
    """Cap the BLAS thread count at the CPUs this process may use.

    Must run before numpy is imported; the bundled OpenBLAS otherwise sizes
    its pool from the host.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(min(max(wanted, 1), nproc))
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def _command_output(cmd: list[str]) -> str | None:
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=10, cwd=ROOT)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(blas_threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = None
    caches = {}
    for level in ("LEVEL2", "LEVEL3"):
        raw = _command_output(["getconf", f"{level}_CACHE_SIZE"])
        caches[level] = int(raw) if raw and raw.isdigit() and int(raw) > 0 else None
    top = _command_output(["git", "rev-parse", "--show-toplevel"])
    sha = _command_output(["git", "rev-parse", "HEAD"]) if top and Path(top) == ROOT else None
    digest = hashlib.sha256()
    for path in sorted((SRC / "quditfft").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": caches["LEVEL2"],
        "l3_bytes": caches["LEVEL3"],
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


def _setup_probe(args) -> float:
    """Set up once more in a fresh process and return its set-up time."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True, cwd=ROOT)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _reference_times(results) -> dict[str, float]:
    """Median np.fft.ifft time on each large transform's own input."""
    out = {}
    for r in results:
        if r.job.reference is None:
            continue
        times = []
        for _ in range(REFERENCE_REPEATS):
            start = time.perf_counter()
            r.job.reference()
            times.append(time.perf_counter() - start)
        out[r.job_id] = statistics.median(times)
    return out


def _max_err(results, name: str) -> float:
    errs = [c.err for r in results for c in r.checks if c.name == name]
    return max(errs) if errs else 0.0


def layer_metrics(results, spans, ref_times: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced round, from its spans and job counts."""
    jobs = {r.job_id: r.job for r in results}
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    verify_by_d: dict[int, float] = defaultdict(float)
    apply_by_job: dict[str, float] = {}
    for name, start, end, parent, job_id in spans:
        if parent is None:
            continue  # a job's own span
        busy[name] += end - start
        calls[name] += 1
        if name == "iontrap.verify_hybrid_gate":
            verify_by_d[jobs[job_id].tags["d"]] += end - start
        elif name == "gates.apply_sequence":
            apply_by_job[job_id] = end - start
    counts: dict[str, float] = defaultdict(float)
    for r in results:
        for key, n in r.job.counts.items():
            counts[key] += n

    m: dict[str, float] = {}
    amp_gates = counts["gates.apply_sequence.amp_gates"]
    m["gates.apply_sequence.busy_s"] = busy["gates.apply_sequence"]
    m["gates.apply_sequence.gate_apps"] = counts["gates.apply_sequence.gate_apps"]
    m["gates.apply_sequence.ns_per_amp_gate"] = _ratio(busy["gates.apply_sequence"], amp_gates) * 1e9
    m["gates.apply_sequence.bytes_computed"] = amp_gates * 32.0  # read + write one complex128
    ratios: dict[int, list[float]] = defaultdict(list)
    for job_id, ref in ref_times.items():
        ratios[jobs[job_id].tags["d"]].append(_ratio(apply_by_job.get(job_id, 0.0), ref))
    for d in _IFFT_DS:
        m[f"gates.apply_sequence.ifft_ratio.d{d}"] = statistics.median(ratios[d]) if ratios[d] else 0.0
    m["gates.build_fft_sequence.busy_s"] = busy["gates.build_fft_sequence"]
    m["register.dit_reversal_permutation.busy_s"] = busy["register.dit_reversal_permutation"]

    name = "gates.verify_fft_equivalence"
    verifies = [{c.name: c.ok for c in r.checks} for r in results if f"{name}.passed" in {c.name for c in r.checks}]
    m[f"{name}.busy_s"] = busy[name]
    m[f"{name}.columns"] = counts[f"{name}.columns"]
    m[f"{name}.us_per_col"] = _ratio(busy[name], counts[f"{name}.columns"]) * 1e6
    m[f"{name}.retries"] = float(sum(not v[f"{name}.as_written"] for v in verifies))
    m[f"{name}.first_try_ratio"] = _ratio(
        sum(v[f"{name}.as_written"] and v[f"{name}.passed"] for v in verifies), len(verifies)
    )
    m[f"{name}.err_over_tol"] = _max_err(results, f"{name}.err_over_tol")
    m["gates.accumulated_phase_turns.busy_s"] = busy["gates.accumulated_phase_turns"]
    m["gates.accumulated_phase_turns.pairs"] = counts["gates.accumulated_phase_turns.pairs"]

    m["pulses.selectivity_sweep.busy_s"] = busy["pulses.selectivity_sweep"]
    m["pulses.selectivity_sweep.points"] = counts["pulses.selectivity_sweep.points"]
    for f in ("integrate_full", "integrate_two_level"):
        m[f"pulses.{f}.busy_s"] = busy[f"pulses.{f}"]
        m[f"pulses.{f}.calls"] = float(calls[f"pulses.{f}"])
    rk4_busy = sum(busy[f"pulses.{f}"] for f in ("selectivity_sweep", "integrate_full", "integrate_two_level"))
    m["pulses.rk4_steps"] = counts["pulses.rk4_steps"]
    m["pulses.us_per_rk4_step"] = _ratio(rk4_busy, counts["pulses.rk4_steps"]) * 1e6
    for f in _WAVEPACKET:
        m[f"wavepacket.{f}.busy_s"] = busy[f"wavepacket.{f}"]
        m[f"wavepacket.{f}.calls"] = float(calls[f"wavepacket.{f}"])
    m["pulses.two_level_err"] = _max_err(results, "pulses.two_level_err")
    m["pulses.leakage_rel_dev"] = _max_err(results, "pulses.leakage_rel_dev")

    name = "iontrap.verify_hybrid_gate"
    m[f"{name}.busy_s"] = busy[name]
    for d in _VERIFY_DS:
        m[f"{name}.d{d}.busy_s"] = verify_by_d[d]
    m[f"{name}.pulses"] = counts[f"{name}.pulses"]
    m[f"{name}.us_per_pulse"] = _ratio(busy[name], counts[f"{name}.pulses"]) * 1e6
    m[f"{name}.fidelity_gap"] = _max_err(results, f"{name}.fidelity_gap")
    m[f"{name}.trap_residual_max"] = _max_err(results, f"{name}.trap_residual_max")
    m["iontrap.build_phase_gate_schedule.busy_s"] = busy["iontrap.build_phase_gate_schedule"]
    name = "iontrap.execute_schedule"
    m[f"{name}.busy_s"] = busy[name]
    m[f"{name}.pulses"] = counts[f"{name}.pulses"]
    m[f"{name}.us_per_pulse"] = _ratio(busy[name], counts[f"{name}.pulses"]) * 1e6

    wall = sum(r.seconds for r in results)
    m["trace.wall_s"] = wall
    m["trace.coverage"] = _ratio(sum(busy.values()), wall)
    return m


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: duration minus the children's time."""
    child = [0.0] * len(spans)
    for name, start, end, parent, job in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent, job) in enumerate(spans):
        out[name] += end - start - child[i]
    return dict(out)


def round_summary(results, rounds: int = 1) -> dict:
    """Mean wall time per round and each kind's rate, over ``rounds`` rounds' results.

    A rate is the kind's total work over its total time, so a long stretch of
    slow host counts by its length rather than by the rounds it spans.
    """
    wall = sum(r.seconds for r in results) / rounds
    rates = {}
    for kind in ("batched", "single"):
        rated = [r for r in results if r.job.rate == kind]
        rates[kind] = _ratio(sum(r.job.items for r in rated), sum(r.seconds for r in rated))
    return {"wall_s": wall, "batched_items_per_s": rates["batched"], "single_items_per_s": rates["single"]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True, help="seed of every generated input")
    p.add_argument("--seconds", type=float, default=38.0, help="how long to repeat the job list")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics")
    p.add_argument("--setup-only", action="store_true", help="set up, print the set-up time, exit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    blas_threads = _pin_blas_threads()
    if not (SRC / "quditfft" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import quditfft
    import workloads

    if SRC not in Path(quditfft.__file__).resolve().parents:
        print(f"error: quditfft was imported from {quditfft.__file__}, not {SRC}", file=sys.stderr)
        return 2

    jobs = workloads.build(args.workload, args.seed)
    warmup = run_round(workloads.build(args.workload, args.seed, "tiny"), -1)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setup_samples = [setup_s] + [_setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]

    rounds, all_results, plain_results, spans_out, layers = [], list(warmup), [], [], []
    loop_start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        i = len(rounds)
        traced = bool(args.trace) and i % 2 == 1
        tracer = Tracer() if traced else NO_TRACE
        results = run_round(jobs, i, tracer)
        all_results += results
        if not traced:
            plain_results += results
        summary = round_summary(results)
        summary["traced"] = traced
        summary["job_s"] = [r.seconds for r in results]
        rounds.append(summary)
        if traced:
            base = len(spans_out)
            spans_out += [[n, s - T_START, e - T_START, None if p is None else p + base, j]
                          for n, s, e, p, j in tracer.spans]
            layers.append(layer_metrics(results, tracer.spans, _reference_times(results)))
        now = time.perf_counter()
        # Stop when one more round would end further past --seconds than now is short of it.
        if now - loop_start + (now - round_start) / 2 >= args.seconds and len(rounds) >= 1 + args.trace:
            break

    attempted = sum(len(r.checks) for r in all_results)
    failures = [(r.job.name, c) for r in all_results for c in r.checks if not c.ok]
    named = {
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **round_summary(plain_results, sum(not r["traced"] for r in rounds)),
    }
    units = dict(END_TO_END)
    if args.trace:
        named.update({k: statistics.median(lm[k] for lm in layers) for k in layers[0]})
        named["trace.overhead_s"] = named["trace.wall_s"] - named["wall_s"]
        units.update({n: u for n, u, _ in PER_LAYER})
        report = [n for n, _, _ in PER_LAYER]
    else:
        report = list(END_TO_END)

    env = environment(blas_threads)
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"{args.workload} seed={args.seed}: {len(rounds)} rounds of {len(jobs)} jobs, "
          f"{sum(r['traced'] for r in rounds)} traced; totals over the untraced rounds")
    for kind, (alias, unit, scale) in RATE_NAMES[args.workload].items():
        print(f"  {alias} = {named[kind + '_items_per_s'] * scale:.6g} {unit}")
    print(f"  fail_ratio = {len(failures) / attempted:.6g} ({len(failures)} failed of {attempted} checks)")
    for name in dict.fromkeys([*END_TO_END, *report]):
        print(f"  {name} = {named[name]:.6g} {units[name]}")
    for job_name, check in failures[:10]:
        print(f"  FAILED {job_name}: {check.name} err={check.err:.3g} tol={check.tol:.3g}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "setup_samples_s": setup_samples, "rounds": rounds, "metrics": named,
        "rate_names": RATE_NAMES[args.workload], "attempted": attempted, "failed": len(failures),
        "failures": [{"job": j, "check": c.name, "err": c.err, "tol": c.tol} for j, c in failures[:100]],
    }
    if args.trace:
        record["self_time_s"] = self_times(spans_out)
        with open(OUT_DIR / f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump([dict(zip(("name", "start", "end", "parent", "job"), s)) for s in spans_out], fh)
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": named[name], "unit": units[name]} for name in report},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
