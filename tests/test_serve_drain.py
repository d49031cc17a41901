"""Drain / shutdown semantics and crash isolation.

The acceptance contract: after ``drain()`` no new submissions are
admitted, running jobs finish (or hit their deadline), straggler
threads of timed-out jobs have been awaited, no job's context outlives
its thread, and a crashing tenant leaves its neighbours' results
bitwise-identical to solo runs.
"""

import asyncio
import gc
import threading
import weakref

import numpy as np
import pytest
from serve_helpers import (
    assert_verdict_results_equal,
    figure8_job,
    halo_job,
    serve_threads_alive,
    sleeper_job,
)

from repro.serve import (
    CallableJob,
    JobStatus,
    ProgramServer,
    ServerClosed,
    ServerConfig,
    run_job_inline,
)
from repro.serve import server as server_module

pytestmark = pytest.mark.serve


def run(coro):
    return asyncio.run(coro)


class TestDrainAdmission:
    def test_post_drain_submissions_rejected(self):
        async def main():
            srv = ProgramServer()
            h = await srv.submit(halo_job(seed=1))
            await srv.drain()
            assert srv.stats()["draining"]
            with pytest.raises(ServerClosed):
                await srv.submit(halo_job(seed=2))
            v = h.verdict
            await srv.close()
            with pytest.raises(ServerClosed):
                await srv.submit(halo_job(seed=3))
            return v

        v = run(main())
        assert v.ok  # admitted before the drain → ran to completion

    def test_drain_is_idempotent_and_close_reentrant(self):
        async def main():
            srv = ProgramServer()
            await srv.submit(halo_job(seed=1))
            await srv.drain()
            await srv.drain()
            await srv.close()
            await srv.close()
            return srv.stats()

        stats = run(main())
        assert stats["by_status"] == {"done": 1}
        assert stats["pending"] == 0

    def test_drain_waits_for_running_jobs(self):
        async def main():
            srv = ProgramServer()
            h = await srv.submit(sleeper_job(0.3, name="finisher"))
            await asyncio.sleep(0.05)
            assert srv.stats()["by_status"] == {"running": 1}
            await srv.close()
            return h.verdict

        v = run(main())
        assert v.ok and v.result == "slept"

    def test_drain_honours_deadlines(self):
        async def main():
            srv = ProgramServer()
            h = await srv.submit(
                sleeper_job(30, name="overdue", timeout=0.2)
            )
            await asyncio.sleep(0.05)
            await srv.close()
            return h.verdict, srv.stats()

        v, stats = run(main())
        assert v.status is JobStatus.TIMEOUT
        assert stats["stragglers"] == 0


@pytest.fixture
def built_contexts(monkeypatch):
    """Weak references to every context the server builds for a job."""
    refs = []
    build = server_module.build_job_context

    def recording(spec):
        ctx = build(spec)
        refs.append(weakref.ref(ctx))
        return ctx

    monkeypatch.setattr(server_module, "build_job_context", recording)
    return refs


def released(refs) -> bool:
    gc.collect()
    return all(ref() is None for ref in refs)


class TestResourceAudit:
    """The server keeps only each job's backend *name*: once a job's
    thread has exited, nothing the server holds keeps its context (and
    with it the job's machine and caches) alive."""

    def test_every_context_closed_after_close(self, built_contexts):
        async def main():
            cfg = ServerConfig(max_concurrency=3)
            async with ProgramServer(cfg) as srv:
                handles = [
                    await srv.submit(halo_job(seed=s, tenant=f"t{s}"))
                    for s in range(4)
                ]
                handles.append(await srv.submit(
                    halo_job(seed=9, tenant="bad", crash=True)
                ))
                handles.append(await srv.submit(
                    sleeper_job(30, tenant="late", timeout=0.2)
                ))
                verdicts = [await h.wait() for h in handles]
            return srv, verdicts

        srv, verdicts = run(main())
        assert len(built_contexts) == len(verdicts)
        assert released(built_contexts)
        assert srv.stats()["stragglers"] == 0
        assert serve_threads_alive() == []

    def test_explicit_backend_contexts_closed(self, built_contexts):
        async def main():
            async with ProgramServer() as srv:
                hs = [
                    await srv.submit(
                        halo_job(seed=i, tenant=be, backend=be)
                    )
                    for i, be in enumerate(("serial", "vectorized"))
                ]
                return srv, [await h.wait() for h in hs]

        srv, verdicts = run(main())
        assert [v.backend for v in verdicts] == ["serial", "vectorized"]
        assert all(v.ok for v in verdicts)
        assert released(built_contexts)

    def test_straggler_context_closed_after_drain(self, built_contexts):
        """A timed-out thread that ignores its control holds its context
        until it exits; drain awaits it, and then nothing holds it."""
        release, finished = threading.Event(), threading.Event()

        def stubborn(ctx, control):
            release.wait(10)  # ignores its control entirely
            finished.set()
            return "finally"

        async def main():
            srv = ProgramServer()
            h = await srv.submit(
                CallableJob(fn=stubborn, name="stubborn", timeout=0.1)
            )
            v = await h.wait()
            assert v.status is JobStatus.TIMEOUT
            assert srv.stats()["stragglers"] == 1
            held_early = not released(built_contexts)
            release.set()
            await srv.drain()
            assert finished.is_set()
            assert srv.stats()["stragglers"] == 0
            await srv.close()
            return srv, held_early

        # the server stays referenced: only what it holds is tested
        srv, held_early = run(main())
        # at verdict time the thread was still holding the context ...
        assert held_early
        # ... but drain awaited it and nothing holds the context now
        assert released(built_contexts)
        assert serve_threads_alive() == []


class TestCrashIsolation:
    def test_crashing_tenant_leaves_others_bitwise_identical(self):
        """Neighbours of a crashing tenant must be bitwise-equal to
        solo runs of the same specs — shared state would show up here."""
        seeds = (21, 22, 23)

        async def main():
            cfg = ServerConfig(max_concurrency=4)
            async with ProgramServer(cfg) as srv:
                crash = await srv.submit(
                    halo_job(seed=99, tenant="chaos", crash=True)
                )
                survivors = [
                    await srv.submit(
                        figure8_job(seed=s, tenant=f"t{s}")
                    )
                    for s in seeds
                ]
                survivors.append(await srv.submit(
                    halo_job(seed=31, tenant="rt")
                ))
                vc = await crash.wait()
                vs = [await h.wait() for h in survivors]
                return vc, vs

        vcrash, vs = run(main())
        assert vcrash.status is JobStatus.FAILED
        assert "crashed mid-run" in vcrash.error
        for v, seed in zip(vs[:-1], seeds):
            assert v.ok
            solo = run_job_inline(figure8_job(seed=seed))
            assert_verdict_results_equal(v.result, solo)
        assert vs[-1].ok
        solo = run_job_inline(halo_job(seed=31))
        np.testing.assert_array_equal(vs[-1].result, solo)

    def test_tenant_cannot_mutate_spec_bindings(self):
        """ProgramJob copies bindings per run: executing the same spec
        served twice yields identical results (no first-run pollution)."""
        spec = figure8_job(seed=7)

        async def main():
            async with ProgramServer() as srv:
                v1 = await (await srv.submit(spec)).wait()
            async with ProgramServer() as srv:
                v2 = await (await srv.submit(spec)).wait()
            return v1, v2

        v1, v2 = run(main())
        assert v1.ok and v2.ok
        assert_verdict_results_equal(v1.result, v2.result)

    def test_failed_jobs_never_raise_out_of_the_loop(self):
        """A pathological tenant (raises BaseException subclass Exception
        from run *and* from a generator fn) still only yields verdicts."""

        def weird(ctx, control):
            raise ArithmeticError("1/0-ish")

        async def main():
            async with ProgramServer() as srv:
                hs = [
                    await srv.submit(CallableJob(fn=weird, tenant=f"w{i}"))
                    for i in range(3)
                ]
                return [await h.wait() for h in hs]

        verdicts = run(main())
        assert all(v.status is JobStatus.FAILED for v in verdicts)
        assert all("ArithmeticError" in v.traceback for v in verdicts)
