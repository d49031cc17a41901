"""Soak: many concurrent tenants, mixed workloads, injected failures.

The acceptance run for the server: >= 8 concurrent tenants spanning
every job family (mini-Fortran-D programs, CHARMM MD, DSMC, raw
runtime-API callables) with at least one tenant raising mid-run and
one exceeding its deadline.  Every surviving tenant's result must be
bitwise-identical to a solo run of the same spec, and shutdown must
leave no open contexts, straggler threads, or child processes.

CI runs this file under ``REPRO_BACKEND=vectorized`` (the server job);
locally it exercises whichever default backend the environment
selects, plus the explicit parametrization below.
"""

import asyncio

import pytest
from serve_helpers import (
    assert_verdict_results_equal,
    figure8_job,
    halo_job,
    serve_threads_alive,
    sleeper_job,
)

from repro.apps import CharmmJob, DsmcJob
from repro.serve import (
    JobStatus,
    ProgramServer,
    ServerConfig,
    run_job_inline,
)

pytestmark = [pytest.mark.serve, pytest.mark.timeout(120)]


def _tenant_fleet(backend):
    """Ten tenants: 4 program, 1 CHARMM, 1 DSMC, 2 runtime-API, 1
    crasher (raises mid-run), 1 deadline-buster."""
    specs = [
        figure8_job(seed=101, tenant="prog-a", backend=backend),
        figure8_job(seed=102, tenant="prog-b", backend=backend),
        figure8_job(seed=103, tenant="prog-c", n=40, e=160,
                    backend=backend),
        figure8_job(seed=104, tenant="prog-d", backend=backend),
        CharmmJob(tenant="md", seed=7, n_atoms=96, steps=2,
                  backend=backend),
        DsmcJob(tenant="flow", seed=11, n_initial=200, steps=2,
                backend=backend),
        halo_job(seed=201, tenant="rt-a", backend=backend),
        halo_job(seed=202, tenant="rt-b", backend=backend),
        halo_job(seed=999, tenant="chaos", crash=True,
                 backend=backend),
        sleeper_job(60, tenant="late", name="overdue", timeout=0.3,
                    backend=backend),
    ]
    assert len({s.tenant for s in specs}) >= 8
    return specs


@pytest.mark.parametrize("backend", ["vectorized"])
def test_soak_mixed_tenants(backend):
    specs = _tenant_fleet(backend)

    async def main():
        cfg = ServerConfig(max_concurrency=4, per_tenant=1,
                           queue_limit=16)
        async with ProgramServer(cfg) as srv:
            handles = [await srv.submit(s) for s in specs]
            verdicts = [await h.wait() for h in handles]
        return srv, verdicts

    srv, verdicts = asyncio.run(main())

    by_tenant = {v.tenant: v for v in verdicts}
    assert by_tenant["chaos"].status is JobStatus.FAILED
    assert "crashed mid-run" in by_tenant["chaos"].error
    assert by_tenant["late"].status is JobStatus.TIMEOUT
    survivors = [v for v in verdicts
                 if v.tenant not in ("chaos", "late")]
    assert all(v.ok for v in survivors), [v.summary() for v in verdicts]

    # bitwise identity: served == solo for every surviving tenant
    for spec, v in zip(specs, verdicts):
        if not v.ok:
            continue
        solo = run_job_inline(spec)
        assert_verdict_results_equal(v.result, solo)

    stats = srv.stats()
    assert stats["admitted"] == len(specs)
    assert stats["pending"] == 0
    assert stats["stragglers"] == 0
    assert stats["by_status"] == {"done": 8, "failed": 1, "timeout": 1}
    assert serve_threads_alive() == []


def test_soak_two_waves_with_backpressure():
    """A second admission wave after the first drains through a tight
    queue: exercises the room signal end-to-end under real jobs."""

    async def main():
        cfg = ServerConfig(max_concurrency=2, per_tenant=1,
                           queue_limit=3, admission="wait")
        async with ProgramServer(cfg) as srv:
            handles = []
            for wave in range(2):
                for i in range(4):
                    handles.append(await srv.submit(
                        halo_job(seed=wave * 10 + i,
                                 tenant=f"w{wave}t{i}")
                    ))
            verdicts = [await h.wait() for h in handles]
        return srv, verdicts

    srv, verdicts = asyncio.run(main())
    assert len(verdicts) == 8
    assert all(v.ok for v in verdicts)
    for v in verdicts:
        solo = run_job_inline(halo_job(seed=v.seed))
        assert_verdict_results_equal(v.result, solo)
    assert serve_threads_alive() == []
