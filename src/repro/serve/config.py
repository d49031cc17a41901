"""Server tuning knobs, collected in one frozen dataclass."""

from __future__ import annotations

from dataclasses import dataclass

#: admission policies for a full queue
ADMISSION_POLICIES = ("reject", "wait")


@dataclass(frozen=True)
class ServerConfig:
    """Configuration for a :class:`~repro.serve.server.ProgramServer`.

    Parameters
    ----------
    max_concurrency:
        Jobs executing simultaneously across all tenants.  Each running
        job occupies one worker thread, so this also sizes the thread
        pool.
    per_tenant:
        Jobs one tenant may have running at once; excess jobs from the
        same tenant wait in the queue while other tenants proceed.
    queue_limit:
        Bound on *pending* jobs (queued + running).  Admission beyond
        the bound follows ``admission``.
    admission:
        ``"reject"`` makes :meth:`ProgramServer.submit` raise
        :class:`~repro.serve.server.AdmissionFull` when the queue is at
        its bound; ``"wait"`` applies backpressure — the submitting
        coroutine suspends until a slot frees up (or the server starts
        draining, which rejects it).
    default_timeout:
        Per-job wall-clock timeout in seconds applied when a
        :class:`~repro.serve.job.JobSpec` does not carry its own;
        ``None`` means no timeout.
    """

    max_concurrency: int = 4
    per_tenant: int = 1
    queue_limit: int = 64
    admission: str = "wait"
    default_timeout: float | None = None

    def __post_init__(self):
        if self.max_concurrency < 1:
            raise ValueError(
                f"max_concurrency must be >= 1, got {self.max_concurrency}"
            )
        if self.per_tenant < 1:
            raise ValueError(
                f"per_tenant must be >= 1, got {self.per_tenant}"
            )
        if self.queue_limit < 1:
            raise ValueError(
                f"queue_limit must be >= 1, got {self.queue_limit}"
            )
        if self.admission not in ADMISSION_POLICIES:
            raise ValueError(
                f"admission must be one of {ADMISSION_POLICIES}, "
                f"got {self.admission!r}"
            )
        if self.default_timeout is not None and self.default_timeout <= 0:
            raise ValueError(
                f"default_timeout must be positive, got {self.default_timeout}"
            )
