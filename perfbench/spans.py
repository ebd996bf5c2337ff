"""Outside-in span recorder for the benchmark's traced run.

Spans are recorded from outside the program: :meth:`Recorder.patched`
temporarily replaces a layer's public function *where its caller looks
it up* (the module attribute the harness, planner or executor reads at
call time) with a wrapper that opens a span around the call. Nothing in
``src/`` knows it is being traced, and the untraced run executes the
unmodified functions.

Each span holds its name, start and end (``time.perf_counter``), the
span that caused it, the query it belongs to, and — for spans marked
``count_jobs`` — the Spark jobs and completed tasks that ran inside it.
Jobs are counted by diffing the highest job id the status tracker knows
before and after the call. Per job group counting is not used: adaptive
query execution submits some of an action's jobs from its own threads,
outside the caller's job group, so group counts come out short.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass
class Span:
    id: int
    name: str
    query: int | None
    parent: int | None
    start: float
    end: float = 0.0
    #: Ids of the Spark jobs that ran inside the span: ``first_job``
    #: up to ``first_job + jobs - 1``.
    first_job: int = 0
    jobs: int = 0
    tasks: int | None = None
    #: Counts taken from the wrapped call's return value.
    attrs: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``module.attr`` gets a span named ``name``.

    ``attrs`` maps the call's return value to counts stored on the span.
    ``count_jobs`` is set only where Spark jobs can run; job counting
    drains Spark's listener bus, which would add overhead to the tight
    driver-side loops (cost matrix, phase selection, phase costing).
    """

    module: Any
    attr: str
    name: str
    count_jobs: bool = False
    attrs: Callable[[Any], dict[str, float]] | None = None


class JobCounter:
    """Spark job and task counts from the application status store.

    The status store is filled asynchronously by a listener, so every
    read first waits until the listener bus has delivered all pending
    events; without that, a job that just finished may not be listed.
    """

    def __init__(self, sc) -> None:
        self._tracker = sc.statusTracker()
        self._bus = sc._jsc.sc().listenerBus()

    def last_job_id(self) -> int:
        self._bus.waitUntilEmpty()
        return max(self._tracker.getJobIdsForGroup(), default=-1)

    def tasks(self, first: int, last: int) -> int:
        """Completed tasks of jobs ``first..last``; stages shared between
        jobs are counted once."""
        stages: set[int] = set()
        for j in range(first, last + 1):
            info = self._tracker.getJobInfo(j)
            if info is None:
                raise RuntimeError(f"Spark job {j} left the status store")
            stages.update(info.stageIds)
        total = 0
        for s in stages:
            info = self._tracker.getStageInfo(s)
            if info is None:
                raise RuntimeError(f"Spark stage {s} left the status store")
            total += info.numCompletedTasks
        return total


class Recorder:
    """Keeps spans in memory; the caller writes them out at exit."""

    def __init__(self, jobs: JobCounter | None = None) -> None:
        self.spans: list[Span] = []
        self.query: int | None = None
        self._jobs = jobs
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, *, count_jobs: bool = False) -> Iterator[Span]:
        count = count_jobs and self._jobs is not None
        before = self._jobs.last_job_id() if count else 0
        sp = Span(
            id=len(self.spans),
            name=name,
            query=self.query,
            parent=self._stack[-1].id if self._stack else None,
            start=time.perf_counter(),
        )
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if count:
                sp.first_job = before + 1
                sp.jobs = self._jobs.last_job_id() - before

    def count_tasks(self) -> None:
        """Fill in the task counts of finished spans. Called outside every
        span, so the status-store lookups add to no span's time."""
        for sp in self.spans:
            if sp.tasks is None and sp.end:
                sp.tasks = (
                    self._jobs.tasks(sp.first_job, sp.first_job + sp.jobs - 1)
                    if self._jobs is not None and sp.jobs
                    else 0
                )

    def wrap(self, fn: Callable, target: Target) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(target.name, count_jobs=target.count_jobs) as sp:
                out = fn(*args, **kwargs)
                if target.attrs is not None:
                    sp.attrs.update(target.attrs(out))
                return out

        return traced

    @contextmanager
    def patched(self, targets: list[Target]) -> Iterator[None]:
        """Wrap every target for the duration of the block, then put the
        original functions back."""
        saved = [(t, getattr(t.module, t.attr)) for t in targets]
        try:
            for t, fn in saved:
                setattr(t.module, t.attr, self.wrap(fn, t))
            yield
        finally:
            for t, fn in saved:
                setattr(t.module, t.attr, fn)

    def children(self, sp: Span) -> list[Span]:
        return [c for c in self.spans if c.parent == sp.id]

    def self_seconds(self, sp: Span) -> float:
        """Duration minus the part of it that child spans cover."""
        covered = 0.0
        edge = sp.start
        for c in sorted(self.children(sp), key=lambda c: c.start):
            lo, hi = max(c.start, edge), min(c.end, sp.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        return sp.seconds - covered
