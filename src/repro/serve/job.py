"""Submit-friendly job specifications and their solo execution path.

A :class:`JobSpec` is the unit of admission: *what* to run (the
``run(ctx, control)`` hook), *where* (simulated machine size + backend
choice), and *how* (a ``seed``, per-job timeout).  Only the
application specs of :mod:`repro.apps.jobs` build their inputs from
the seed; :class:`CallableJob` and :class:`ProgramJob` never read it,
and for them it is only copied into the
:class:`~repro.serve.verdict.JobVerdict`.  The server executes a spec
on a worker thread under a fresh per-tenant
:class:`~repro.core.context.ExecutionContext`; the same code path is
exposed as :func:`run_job_inline` so tests can compare a tenant's
served result bitwise against a solo run.

Cooperative cancellation rides :class:`JobControl`: the server flips
the control's stop flag on timeout or cancellation, and well-behaved
specs call ``control.check()`` between steps (the CHARMM/DSMC specs in
:mod:`repro.apps.jobs` do) so abandoned worker threads wind down
quickly instead of running their remaining steps.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.context import ExecutionContext
from repro.sim.machine import Machine


class JobCancelled(Exception):
    """Raised inside a job when its control was asked to stop."""


class JobControl:
    """Thread-safe stop flag shared between the server and one job."""

    __slots__ = ("_stop",)

    def __init__(self):
        self._stop = threading.Event()

    def stop(self) -> None:
        """Ask the job to wind down (idempotent)."""
        self._stop.set()

    def check(self) -> None:
        """Cooperative cancellation point: raise if a stop was requested."""
        if self._stop.is_set():
            raise JobCancelled("job asked to stop")

    def sleep(self, seconds: float) -> None:
        """Sleep that wakes (and raises) as soon as a stop is requested."""
        if self._stop.wait(seconds):
            raise JobCancelled("job asked to stop")


@dataclass(kw_only=True)
class JobSpec(ABC):
    """One submittable unit of work.

    Subclasses implement :meth:`run`; everything else — building the
    per-job machine and context, stats collection, failure isolation —
    is the server's job.  ``backend=None`` falls through
    the usual default chain (``REPRO_BACKEND`` → ``"vectorized"``), so
    one deployment-wide environment variable retargets every job that
    doesn't pin one.  ``seed`` is the subclass's to read (the CHARMM
    and DSMC specs build their inputs from it); every job's verdict
    records it.
    """

    name: str = "job"
    tenant: str = "default"
    n_ranks: int = 4
    backend: str | None = None
    seed: int = 0
    timeout: float | None = None

    def __post_init__(self):
        if self.n_ranks < 1:
            raise ValueError(f"n_ranks must be >= 1, got {self.n_ranks}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(
                f"timeout must be positive, got {self.timeout}"
            )

    @abstractmethod
    def run(self, ctx: ExecutionContext, control: JobControl) -> Any:
        """Execute against a fresh per-job context.

        Implementations should call ``control.check()`` at natural step
        boundaries so timeouts and cancellations take effect promptly.
        """


@dataclass(kw_only=True)
class CallableJob(JobSpec):
    """Wrap any ``fn(ctx, control) -> result`` as a job; ``fn`` does
    not see the spec's ``seed``."""

    fn: Callable[[ExecutionContext, JobControl], Any]

    def run(self, ctx: ExecutionContext, control: JobControl) -> Any:
        return self.fn(ctx, control)


@dataclass(kw_only=True)
class ProgramJob(JobSpec):
    """A mini-Fortran-D program: source + bindings, returns ``fetch``.

    The source is compiled inside the job (compilation errors are
    tenant failures, not server failures), bindings are copied so one
    spec can be executed many times — served and solo — from identical
    initial state, and the arrays named in ``fetch`` are assembled
    host-side as the job's result.  The bindings are the program's
    whole input: the spec's ``seed`` is not read.
    """

    source: str
    bindings: dict[str, Any] = field(default_factory=dict)
    fetch: tuple[str, ...] = ()

    def run(self, ctx: ExecutionContext, control: JobControl) -> dict:
        from repro.lang.program import ProgramInstance, compile_program

        control.check()
        compiled = compile_program(self.source)
        bindings = {
            k: (v.copy() if hasattr(v, "copy") else v)
            for k, v in self.bindings.items()
        }
        inst = ProgramInstance(compiled, ctx, bindings)
        control.check()
        inst.execute()
        names = self.fetch or tuple(sorted(inst.local))
        return {n: np.asarray(inst.get_array(n)) for n in names}


# ----------------------------------------------------------------------
# execution plumbing shared by the server and solo runs
# ----------------------------------------------------------------------
def build_job_context(spec: JobSpec) -> ExecutionContext:
    """Fresh machine + context for one job, per the spec's knobs."""
    machine = Machine(spec.n_ranks)
    return ExecutionContext.resolve(machine, spec.backend)


def collect_stats(ctx: ExecutionContext) -> dict:
    """The per-tenant machine's accounting for the job's verdict."""
    return {
        "traffic": ctx.traffic.snapshot(),
        "clock": {
            "execution": ctx.machine.execution_time(),
            "max_time": ctx.clocks.max_time(),
        },
        "cache": {
            "entries": len(ctx.schedule_cache),
            **ctx.schedule_cache.total_stats().as_dict(),
        },
        "backend": ctx.backend.name,
        "n_ranks": ctx.n_ranks,
    }


def run_job_inline(spec: JobSpec, control: JobControl | None = None) -> Any:
    """Execute a spec solo — same context plumbing the server uses.

    The reference path for isolation tests: a tenant's served result
    must be bitwise-identical to ``run_job_inline`` of the same spec,
    whatever its neighbours did.
    """
    control = control if control is not None else JobControl()
    return spec.run(build_job_context(spec), control)
