"""The asyncio multi-tenant program server.

:class:`ProgramServer` owns an admission queue of submitted
:class:`~repro.serve.job.JobSpec`\\ s and runs each under its own
per-tenant :class:`~repro.core.context.ExecutionContext` inside a
soft-failure wrapper (:meth:`ProgramServer._soft_run`): one tenant's
exception, deadline overrun, or cancellation produces a recorded
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
* timeouts and cancellations never kill the worker thread (Python
  cannot); they flip the job's cooperative
  :class:`~repro.serve.job.JobControl`, record the verdict
  immediately, and park the thread's future as a *straggler* that
  ``drain()`` awaits.

``drain()`` rejects new admissions, lets admitted jobs finish (or hit
their deadline) and awaits stragglers.  ``close()`` drains and then
shuts the server's own thread pool down.
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
from repro.serve.verdict import TERMINAL_STATES, JobStatus, JobVerdict


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
    cancel_event: asyncio.Event = field(default_factory=asyncio.Event)
    done: asyncio.Event = field(default_factory=asyncio.Event)
    task: asyncio.Task | None = None
    started_at: float | None = None
    verdict: JobVerdict | None = None
    #: the backend name the spec resolved to, set from the worker thread
    #: once the per-job context exists
    backend: str | None = None


class JobHandle:
    """Caller-side view of one admitted job (status / wait / cancel)."""

    __slots__ = ("_server", "job_id")

    def __init__(self, server: "ProgramServer", job_id: int):
        self._server = server
        self.job_id = job_id

    @property
    def spec(self) -> JobSpec:
        return self._server._job(self.job_id).spec

    @property
    def status(self) -> JobStatus:
        return self._server.status(self.job_id)

    @property
    def verdict(self) -> JobVerdict | None:
        return self._server.verdict(self.job_id)

    async def wait(self) -> JobVerdict:
        """Suspend until the job reaches a terminal state."""
        job = self._server._job(self.job_id)
        await job.done.wait()
        assert job.verdict is not None
        return job.verdict

    def cancel(self) -> bool:
        """Request cancellation; False if the job already finished."""
        return self._server.cancel(self.job_id)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"JobHandle(id={self.job_id}, status={self.status.value})"


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
        """Admit one job; returns a handle for status/wait/cancel.

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
        """Backstop for tasks torn down before ``_run_job`` ever ran.

        A task cancelled before its first step never enters the
        coroutine, so ``_run_job``'s own finally cannot record the
        verdict; this callback closes that gap (and any other path
        that kills the task without running it).
        """
        if job.done.is_set():
            return
        job.control.stop()
        if task.cancelled():
            self._record(job, JobStatus.CANCELLED,
                         error="cancelled while queued")
        self._finish(job)  # records FAILED if still verdict-less

    def _check_open(self) -> None:
        if self._closing:
            raise ServerClosed(
                "server is draining; new admissions are rejected"
            )

    # ------------------------------------------------------------------
    # status queries
    # ------------------------------------------------------------------
    def _job(self, job_id: int) -> _Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job id {job_id}")
        return job

    def status(self, job_id: int) -> JobStatus:
        return self._job(job_id).status

    def verdict(self, job_id: int) -> JobVerdict | None:
        """The job's verdict, or ``None`` while it is still pending."""
        return self._job(job_id).verdict

    def jobs(self, tenant: str | None = None) -> list[JobHandle]:
        """Handles of every admitted job, optionally one tenant's."""
        return [
            JobHandle(self, j.id) for j in self._jobs.values()
            if tenant is None or j.spec.tenant == tenant
        ]

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

    @property
    def draining(self) -> bool:
        return self._closing

    # ------------------------------------------------------------------
    # cancellation
    # ------------------------------------------------------------------
    def cancel(self, job_id: int) -> bool:
        """Request cancellation of one job.

        Queued jobs are cancelled before they start; running jobs get a
        cooperative stop (their worker thread winds down as a straggler
        if the spec ignores the control).  Returns ``False`` when the
        job already reached a terminal state.
        """
        job = self._job(job_id)
        if job.status in TERMINAL_STATES:
            return False
        job.control.stop()
        job.cancel_event.set()
        if job.status is JobStatus.QUEUED and job.task is not None:
            job.task.cancel()
        return True

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
                    if job.cancel_event.is_set():
                        self._record(job, JobStatus.CANCELLED,
                                     error="cancelled while queued")
                        return
                    await self._soft_run(job)
        except asyncio.CancelledError:
            # task cancelled while queued (waiting on a semaphore)
            job.control.stop()
            self._record(job, JobStatus.CANCELLED,
                         error="cancelled while queued")
        finally:
            self._finish(job)

    async def _soft_run(self, job: _Job) -> None:
        """Run one job's thread under the soft-failure contract.

        Every exit of this coroutine leaves a recorded verdict and
        never propagates a tenant failure: exceptions become ``FAILED``
        verdicts, deadline overruns ``TIMEOUT``, cancellations
        ``CANCELLED``.  Threads that outlive their verdict (timeout /
        cancel) are parked in ``self._stragglers`` for ``drain()``.
        """
        loop = asyncio.get_running_loop()
        job.status = JobStatus.RUNNING
        job.started_at = time.monotonic()
        fut = loop.run_in_executor(self._pool, self._execute_in_thread, job)
        cancel_waiter = asyncio.ensure_future(job.cancel_event.wait())
        timeout = (job.spec.timeout if job.spec.timeout is not None
                   else self.config.default_timeout)
        hard_cancel = False
        try:
            done, _ = await asyncio.wait(
                {fut, cancel_waiter}, timeout=timeout,
                return_when=asyncio.FIRST_COMPLETED,
            )
        except asyncio.CancelledError:
            # hard task cancellation raced the queued→running transition
            # (or the surrounding loop is tearing down): same treatment
            # as a cooperative cancel, thread parked as a straggler
            done, hard_cancel = set(), True
        finally:
            cancel_waiter.cancel()
        if fut in done:
            self._settle(job, fut)
            return
        job.control.stop()
        self._stragglers[job.id] = fut
        fut.add_done_callback(
            lambda f, job=job: self._straggler_done(job, f)
        )
        if hard_cancel or job.cancel_event.is_set():
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
