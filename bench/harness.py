"""Jobs, checks, spans and the round loop shared by every workload.

A *job* is a short list of calls into the package's public functions. The
harness times each job from outside, then checks its output against an
independent oracle after the clock has stopped. A *round* is one pass over a
workload's fixed job list. With a :class:`Tracer`, every call inside a job is
also recorded as a span whose parent is the job's own span; with
:data:`NO_TRACE` the span calls cost one attribute lookup.

This module uses the standard library only, so the runner can pin the BLAS
thread count before numpy is imported.
"""
from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(frozen=True)
class Check:
    """One verified property of a job's output: it holds when ``err <= tol``.

    A NaN error fails. ``name`` doubles as the per-layer metric that reports
    the worst error seen, where the check is an observability figure.
    """

    name: str
    err: float
    tol: float

    @property
    def ok(self) -> bool:
        return bool(self.err <= self.tol)


def flag(name: str, holds: bool) -> Check:
    """A yes/no check: error 0 when it holds, 1 when it does not."""
    return Check(name, 0.0 if holds else 1.0, 0.0)


@dataclass
class Job:
    """One timed unit of work.

    ``run`` receives the tracer and returns the output that ``check`` turns
    into a list of :class:`Check`. ``rate`` names the end-to-end rate the job
    feeds (``"batched"``, ``"single"`` or ``None`` for wall time only) and
    ``items`` is the work it contributes to that rate. ``counts`` holds the
    per-layer work counters the job implies, computed from its inputs, and
    ``tags`` the parameters the per-layer report groups by.
    """

    kind: str
    name: str
    run: Callable[["Tracer"], Any]
    check: Callable[[Any], list[Check]]
    rate: str | None = None
    items: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)
    tags: dict[str, Any] = field(default_factory=dict)
    reference: Callable[[], Any] | None = None


class Tracer:
    """In-memory span recorder.

    Each span is ``[name, start, end, parent, job]``: ``parent`` is the index
    of the enclosing span or ``None``, ``job`` the id of the job it belongs to.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job: str | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), math.nan, parent, self.job])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()


class _NoTrace:
    job = None
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


NO_TRACE = _NoTrace()


@dataclass
class JobResult:
    job: Job
    job_id: str
    seconds: float
    checks: list[Check]


def run_job(job: Job, job_id: str, tracer=NO_TRACE) -> JobResult:
    """Time one job, then check its output with the clock stopped.

    An exception from the job or its check counts as one failed check.
    """
    tracer.job = job_id
    start = time.perf_counter()
    try:
        with tracer.span("job." + job.kind):
            out = job.run(tracer)
    except Exception as exc:  # a raising job is a failed job, not a crash
        return JobResult(job, job_id, time.perf_counter() - start, [Check(f"raised {exc!r}", 1.0, 0.0)])
    seconds = time.perf_counter() - start
    try:
        checks = job.check(out)
    except Exception as exc:
        checks = [Check(f"check raised {exc!r}", 1.0, 0.0)]
    return JobResult(job, job_id, seconds, checks)


def interleave(jobs: list[Job]) -> list[Job]:
    """Spread each job kind evenly over the list, keeping each kind's own order.

    The host's speed drifts over seconds. Interleaving makes each kind's rate
    sample the whole round rather than one stretch of it.
    """
    kinds: dict[str, list[Job]] = {}
    for job in jobs:
        kinds.setdefault(job.kind, []).append(job)
    placed = [
        ((i + 0.5) / len(group), k, job)
        for k, group in enumerate(kinds.values())
        for i, job in enumerate(group)
    ]
    return [job for _, _, job in sorted(placed, key=lambda p: p[:2])]


def run_round(jobs: list[Job], round_id: int, tracer=NO_TRACE) -> list[JobResult]:
    return [run_job(job, f"{round_id}:{i}", tracer) for i, job in enumerate(jobs)]
