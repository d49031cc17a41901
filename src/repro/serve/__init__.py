"""Chaos-as-a-service: an async multi-tenant program server.

The runtime below this package is a *library*: one caller builds one
:class:`~repro.core.context.ExecutionContext` and drives one program.
``repro.serve`` wraps it in a long-lived service that hosts many
concurrent programs the way a production deployment would:

* :class:`ProgramServer` — an asyncio admission/work queue over
  submitted :class:`JobSpec`\\ s.  Every job runs under its own
  per-tenant :class:`~repro.core.context.ExecutionContext` (own
  simulated machine, own schedule cache) inside a
  soft-failure wrapper: a tenant that raises, times out, or is
  cancelled produces a recorded :class:`JobVerdict` and never takes
  down the event loop or perturbs another tenant's bitwise results.
* :class:`JobSpec` — the submit-friendly unit of work (program +
  machine size + backend choice + seed + timeout).  Ships with
  :class:`CallableJob` (any ``fn(ctx, control)``) and
  :class:`ProgramJob` (mini-Fortran-D source + bindings), which do not
  read the seed (it is only recorded in their verdicts); the
  application-shaped specs (CHARMM, DSMC), which build their inputs
  from it, live in :mod:`repro.apps.jobs`.
* :class:`JobVerdict` — the per-job record: terminal status, result or
  error + traceback, and traffic/virtual-clock/cache statistics.

Backend work executes on a thread pool via ``run_in_executor`` so the
event loop stays responsive; admission is bounded with configurable
backpressure; ``drain()``/``close()`` reject new submissions, finish
running jobs and await straggler threads.
"""

from repro.serve.config import ServerConfig
from repro.serve.job import (
    CallableJob,
    JobCancelled,
    JobControl,
    JobSpec,
    ProgramJob,
    build_job_context,
    run_job_inline,
)
from repro.serve.server import (
    AdmissionFull,
    JobHandle,
    ProgramServer,
    ServerClosed,
)
from repro.serve.verdict import JobStatus, JobVerdict

__all__ = [
    "AdmissionFull",
    "CallableJob",
    "JobCancelled",
    "JobControl",
    "JobHandle",
    "JobSpec",
    "JobStatus",
    "JobVerdict",
    "ProgramJob",
    "ProgramServer",
    "ServerClosed",
    "ServerConfig",
    "build_job_context",
    "run_job_inline",
]
