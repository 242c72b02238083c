"""Self-test of the benchmark's live checks.

    python3 -m pytest bench

Runs each workload's tiny job list. Clean outputs must pass every check, and
an output with one number moved slightly must be counted as a failure, so a
wrong result cannot pass as a fast one.
"""
from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from quditfft.gates import EquivalenceReport  # noqa: E402
from quditfft.iontrap import FidelityReport  # noqa: E402
from quditfft.pulses import AtomState  # noqa: E402


def corrupt(out):
    """``out`` with its first number moved by 1e-6 (a rational by 2**-20)."""
    if isinstance(out, np.ndarray):
        bad = out.copy()
        bad.flat[0] += 1e-6
        return bad
    if isinstance(out, Fraction):
        return out + Fraction(1, 2**20)
    if isinstance(out, (list, tuple)):
        return type(out)([corrupt(out[0]), *out[1:]])
    if isinstance(out, dict):
        first = next(iter(out))
        return {**out, first: corrupt(out[first])}
    if isinstance(out, EquivalenceReport):
        return dataclasses.replace(out, order="reversed")
    if isinstance(out, FidelityReport):
        return dataclasses.replace(out, fidelity=out.fidelity + 1e-6)
    if isinstance(out, AtomState):
        return dataclasses.replace(out, b_g=out.b_g + 1e-6)
    return dataclasses.replace(out, amps=corrupt(out.amps))  # AmplitudeVector, JointIonState


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_clean_outputs_pass(workload, seed):
    results = harness.run_round(workloads.build(workload, seed, "tiny"), 0)
    failed = [(r.job.name, c) for r in results for c in r.checks if not c.ok]
    assert results and not failed


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_output_of_any_job_is_counted(workload):
    for job in workloads.build(workload, 1, "tiny"):
        bad = dataclasses.replace(job, run=lambda tr, clean=job.run: corrupt(clean(tr)))
        (result,) = harness.run_round([bad], 0)
        assert any(not c.ok for c in result.checks), job.name


def test_raising_job_is_one_failed_check():
    def boom(tr):
        raise ValueError("bad input")

    job = harness.Job("single", "boom", boom, lambda out: [])
    (result,) = harness.run_round([job], 0)
    assert [c.ok for c in result.checks] == [False]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_round_reports_every_per_layer_metric(workload):
    tracer = harness.Tracer()
    results = harness.run_round(workloads.build(workload, 1, "tiny"), 0, tracer)
    metrics = run.layer_metrics(results, tracer.spans, run._reference_times(results))
    assert set(metrics) | {"trace.overhead_s"} == {name for name, _, _ in run.PER_LAYER}
    jobs = [s for s in tracer.spans if s[3] is None]
    assert len(jobs) == len(results)
    assert all(s[1] <= s[2] for s in tracer.spans)


def test_benchmark_json_matches_runner():
    with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
