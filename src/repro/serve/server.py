"""The asyncio multi-tenant program server.

:class:`ProgramServer` owns an admission queue of submitted
:class:`~repro.serve.job.JobSpec`\\ s and runs each under its own
per-tenant :class:`~repro.core.context.ExecutionContext` inside a
soft-failure wrapper (:meth:`ProgramServer._soft_run`): one tenant's
exception, deadline overrun, or cancelled task produces a recorded
:class:`~repro.serve.verdict.JobVerdict` and never takes down the
event loop or another tenant.  Backend work executes on a dedicated
thread pool via ``run_in_executor`` so the loop stays responsive while
kernels grind.

Concurrency structure
---------------------
* admission is bounded by ``config.queue_limit`` over *pending* jobs
  (queued + running); a full queue rejects
  (:class:`AdmissionFull`) or applies backpressure — the submitting
  coroutine suspends — per ``config.admission``;
* each job is one asyncio task that first acquires its tenant's
  semaphore (``config.per_tenant``), then the global one
  (``config.max_concurrency``) — tenant-first ordering keeps one
  flooding tenant's queued jobs from camping on global slots other
  tenants could use;
* timeouts and cancelled tasks never kill the worker thread (Python
  cannot); they flip the job's cooperative
  :class:`~repro.serve.job.JobControl`, record the verdict
  immediately, and park the thread's future as a *straggler* that
  ``drain()`` awaits.

``drain()`` rejects new admissions, lets admitted jobs finish (or hit
their deadline) and awaits stragglers.  ``close()`` drains and then
shuts the server's own thread pool down.  A job's task is cancelled only
when its event loop tears down with the job still pending
(``asyncio.run`` cancels every task left when its coroutine returns);
the job is then recorded ``CANCELLED``.
"""

from __future__ import annotations

import asyncio
import itertools
import time
import traceback as _traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

from repro.serve.config import ServerConfig
from repro.serve.job import (
    JobCancelled,
    JobControl,
    JobSpec,
    build_job_context,
    collect_stats,
)
from repro.serve.verdict import JobStatus, JobVerdict


class ServerClosed(RuntimeError):
    """Submission rejected: the server is draining or closed."""


class AdmissionFull(RuntimeError):
    """Submission rejected: the bounded admission queue is at capacity."""


@dataclass(eq=False)
class _Job:
    """Server-internal state for one admitted job."""

    id: int
    spec: JobSpec
    submitted_at: float
    status: JobStatus = JobStatus.QUEUED
    control: JobControl = field(default_factory=JobControl)
    done: asyncio.Event = field(default_factory=asyncio.Event)
    task: asyncio.Task | None = None
    started_at: float | None = None
    verdict: JobVerdict | None = None
    #: the backend name the spec resolved to, set from the worker thread
    #: once the per-job context exists
    backend: str | None = None


class JobHandle:
    """Caller-side view of one admitted job (verdict / wait)."""

    __slots__ = ("_server", "job_id")

    def __init__(self, server: "ProgramServer", job_id: int):
        self._server = server
        self.job_id = job_id

    @property
    def verdict(self) -> JobVerdict | None:
        return self._server.verdict(self.job_id)

    async def wait(self) -> JobVerdict:
        """Suspend until the job reaches a terminal state."""
        job = self._server._job(self.job_id)
        await job.done.wait()
        assert job.verdict is not None
        return job.verdict


class ProgramServer:
    """Async multi-tenant host for CHAOS programs.

    Use inside one event loop, ideally as an async context manager::

        async with ProgramServer(ServerConfig(max_concurrency=8)) as srv:
            handle = await srv.submit(spec)
            verdict = await handle.wait()

    The ``async with`` exit calls :meth:`close` — drain plus thread-pool
    shutdown.  A server is single-shot: once draining starts, new
    submissions are rejected forever (build a new server to reopen).
    """

    def __init__(self, config: ServerConfig | None = None):
        self.config = config if config is not None else ServerConfig()
        self._jobs: dict[int, _Job] = {}
        self._ids = itertools.count(1)
        self._pending = 0
        self._closing = False
        self._closed = False
        self._global_sem = asyncio.Semaphore(self.config.max_concurrency)
        self._tenant_sems: dict[str, asyncio.Semaphore] = {}
        self._room = asyncio.Event()
        self._stragglers: dict[int, asyncio.Future] = {}
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.max_concurrency,
            thread_name_prefix="repro-serve",
        )

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    async def submit(self, spec: JobSpec) -> JobHandle:
        """Admit one job; returns a handle for its verdict.

        Raises :class:`ServerClosed` once draining started and
        :class:`AdmissionFull` when the queue is at its bound under the
        ``"reject"`` admission policy; under ``"wait"`` the call
        suspends until a pending job finishes (backpressure) or the
        server starts draining.
        """
        if not isinstance(spec, JobSpec):
            raise TypeError(f"submit() takes a JobSpec, got {spec!r}")
        self._check_open()
        limit = self.config.queue_limit
        if self._pending >= limit and self.config.admission == "reject":
            raise AdmissionFull(
                f"admission queue at capacity ({limit} pending jobs)"
            )
        while self._pending >= limit:
            self._room.clear()
            await self._room.wait()
            self._check_open()
        job = _Job(id=next(self._ids), spec=spec,
                   submitted_at=time.monotonic())
        self._jobs[job.id] = job
        self._pending += 1
        job.task = asyncio.create_task(
            self._run_job(job), name=f"repro-serve-job-{job.id}"
        )
        job.task.add_done_callback(
            lambda t, job=job: self._task_done(job, t)
        )
        return JobHandle(self, job.id)

    def _task_done(self, job: _Job, task: asyncio.Task) -> None:
        """Backstop for a task torn down before ``_run_job`` ever ran:
        the coroutine's own finally never ran, so the job is finished
        here (``FAILED``, without a verdict of its own)."""
        if not job.done.is_set():
            job.control.stop()
            self._finish(job)

    def _check_open(self) -> None:
        if self._closing:
            raise ServerClosed(
                "server is draining; new admissions are rejected"
            )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _job(self, job_id: int) -> _Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job id {job_id}")
        return job

    def verdict(self, job_id: int) -> JobVerdict | None:
        """The job's verdict, or ``None`` while it is still pending."""
        return self._job(job_id).verdict

    def stats(self) -> dict:
        """Server-level counters (admissions, per-status counts)."""
        by_status: dict[str, int] = {}
        for j in self._jobs.values():
            by_status[j.status.value] = by_status.get(j.status.value, 0) + 1
        return {
            "admitted": len(self._jobs),
            "pending": self._pending,
            "stragglers": len(self._stragglers),
            "draining": self._closing,
            "by_status": by_status,
        }

    # ------------------------------------------------------------------
    # the per-job task
    # ------------------------------------------------------------------
    def _tenant_sem(self, tenant: str) -> asyncio.Semaphore:
        sem = self._tenant_sems.get(tenant)
        if sem is None:
            sem = self._tenant_sems[tenant] = asyncio.Semaphore(
                self.config.per_tenant
            )
        return sem

    async def _run_job(self, job: _Job) -> None:
        try:
            # tenant-first ordering: a flooding tenant's queued jobs wait
            # on their own semaphore without camping on global slots
            async with self._tenant_sem(job.spec.tenant):
                async with self._global_sem:
                    await self._soft_run(job)
        except asyncio.CancelledError:
            # the loop tore down while the job was queued (waiting on a
            # semaphore)
            job.control.stop()
            self._record(job, JobStatus.CANCELLED,
                         error="cancelled while queued")
        finally:
            self._finish(job)

    async def _soft_run(self, job: _Job) -> None:
        """Run one job's thread under the soft-failure contract.

        Every exit of this coroutine leaves a recorded verdict and
        never propagates a tenant failure: exceptions become ``FAILED``
        verdicts, deadline overruns ``TIMEOUT``, a cancelled task
        ``CANCELLED``.  Threads that outlive their verdict are parked in
        ``self._stragglers`` for ``drain()``.
        """
        loop = asyncio.get_running_loop()
        job.status = JobStatus.RUNNING
        job.started_at = time.monotonic()
        fut = loop.run_in_executor(self._pool, self._execute_in_thread, job)
        timeout = (job.spec.timeout if job.spec.timeout is not None
                   else self.config.default_timeout)
        cancelled = False
        try:
            done, _ = await asyncio.wait({fut}, timeout=timeout)
        except asyncio.CancelledError:
            # the surrounding loop is tearing down: the thread is asked
            # to stop and parked as a straggler
            done, cancelled = set(), True
        if fut in done:
            self._settle(job, fut)
            return
        job.control.stop()
        self._stragglers[job.id] = fut
        fut.add_done_callback(
            lambda f, job=job: self._straggler_done(job, f)
        )
        if cancelled:
            self._record(job, JobStatus.CANCELLED,
                         error="cancelled while running")
        else:
            self._record(job, JobStatus.TIMEOUT,
                         error=f"exceeded {timeout}s deadline")

    def _settle(self, job: _Job, fut: asyncio.Future) -> None:
        """Record the verdict for a thread that ran to completion."""
        try:
            status, result, error, tb, stats = fut.result()
        except BaseException as exc:  # defensive: thread surface broke
            self._record(job, JobStatus.FAILED, error=repr(exc),
                         tb=_traceback.format_exc())
            return
        self._record(job, status, result=result, error=error, tb=tb,
                     stats=stats)

    def _straggler_done(self, job: _Job, fut: asyncio.Future) -> None:
        """A timed-out/cancelled job's thread finally exited."""
        self._stragglers.pop(job.id, None)
        if fut.cancelled():
            return
        fut.exception()  # consume, isolation already recorded the verdict

    def _finish(self, job: _Job) -> None:
        if job.verdict is None:  # belt and braces: every path records
            self._record(job, JobStatus.FAILED,
                         error="job task exited without a verdict")
        self._pending -= 1
        job.done.set()
        self._room.set()

    # ------------------------------------------------------------------
    # worker-thread side
    # ------------------------------------------------------------------
    def _execute_in_thread(self, job: _Job):
        """Build the per-job context and run the spec.

        Runs on the server's thread pool.  Never raises: the outcome
        tuple ``(status, result, error, traceback, stats)`` carries
        tenant failures back to the loop.
        """
        spec = job.spec
        try:
            ctx = build_job_context(spec)
        except Exception as exc:
            return (JobStatus.FAILED, None, repr(exc),
                    _traceback.format_exc(), {})
        job.backend = ctx.backend.name
        try:
            result = spec.run(ctx, job.control)
            status, error, tb = JobStatus.DONE, None, None
        except JobCancelled as exc:
            result, status = None, JobStatus.CANCELLED
            error, tb = repr(exc), None
        except Exception as exc:
            result, status = None, JobStatus.FAILED
            error, tb = repr(exc), _traceback.format_exc()
        return (status, result, error, tb, collect_stats(ctx))

    # ------------------------------------------------------------------
    # verdicts
    # ------------------------------------------------------------------
    def _record(self, job: _Job, status: JobStatus, *, result: Any = None,
                error: str | None = None, tb: str | None = None,
                stats: dict | None = None) -> None:
        """Record the job's terminal verdict exactly once."""
        if job.verdict is not None:
            return
        job.status = status
        job.verdict = JobVerdict(
            job_id=job.id,
            name=job.spec.name,
            tenant=job.spec.tenant,
            status=status,
            backend=job.backend or job.spec.backend,
            seed=job.spec.seed,
            result=result,
            error=error,
            traceback=tb,
            stats=stats or {},
            submitted_at=job.submitted_at,
            started_at=job.started_at,
            finished_at=time.monotonic(),
        )

    # ------------------------------------------------------------------
    # drain / shutdown
    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Graceful wind-down: reject new admissions, finish the rest.

        Admitted jobs run to completion (or their deadline), and
        straggler threads from timed-out/cancelled jobs are awaited.
        Idempotent.
        """
        self._closing = True
        self._room.set()  # wake backpressured submitters → ServerClosed
        tasks = [j.task for j in self._jobs.values() if j.task is not None]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        for fut in list(self._stragglers.values()):
            try:
                await fut
            except BaseException:
                pass  # verdicts were recorded when the jobs were abandoned
        self._stragglers.clear()

    async def close(self) -> None:
        """Drain, then shut the server's worker thread pool down."""
        await self.drain()
        if not self._closed:
            self._closed = True
            self._pool.shutdown(wait=True)

    async def __aenter__(self) -> "ProgramServer":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"ProgramServer(admitted={len(self._jobs)}, "
                f"pending={self._pending}, draining={self._closing})")
