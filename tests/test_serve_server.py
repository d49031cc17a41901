"""Unit tests for the multi-tenant program server.

Event-loop mechanics (admission, lifecycle states, per-tenant caps,
backpressure, timeouts, loop teardown, soft-failure isolation) on cheap
jobs; the heavy end-to-end runs live in ``test_serve_soak.py``.  No
pytest-asyncio in the toolchain — each test drives its own loop with
``asyncio.run``.
"""

import asyncio
import hashlib
import threading

import numpy as np
import pytest
from conftest import ALL_BACKENDS
from serve_helpers import (
    assert_verdict_results_equal,
    figure8_job,
    gated_job,
    halo_job,
    sleeper_job,
)

from repro.serve import (
    AdmissionFull,
    CallableJob,
    JobCancelled,
    JobControl,
    JobSpec,
    JobStatus,
    ProgramServer,
    ServerClosed,
    ServerConfig,
    run_job_inline,
)

pytestmark = pytest.mark.serve


def run(coro):
    return asyncio.run(coro)


def const_job(value, **kw):
    return CallableJob(fn=lambda ctx, control: value, **kw)


# ----------------------------------------------------------------------
# lifecycle + verdicts
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_submit_wait_done(self):
        async def main():
            async with ProgramServer() as srv:
                handle = await srv.submit(const_job(41, name="answer"))
                verdict = await handle.wait()
                return srv, handle, verdict

        srv, handle, verdict = run(main())
        assert verdict.ok
        assert verdict.status is JobStatus.DONE
        assert verdict.result == 41
        assert verdict.name == "answer"
        assert verdict.error is None and verdict.traceback is None
        assert verdict.duration is not None and verdict.duration >= 0
        # verdict queries agree between handle and server
        assert srv.verdict(handle.job_id) is verdict
        assert handle.verdict is verdict

    def test_queued_running_states_observed(self):
        release = threading.Event()

        async def main():
            async with ProgramServer(
                ServerConfig(max_concurrency=1)
            ) as srv:
                try:
                    await srv.submit(gated_job(release, name="hog"))
                    second = await srv.submit(const_job(2, name="queued"))
                    await asyncio.sleep(0.1)
                    states = srv.stats()["by_status"]
                finally:
                    release.set()
                return states, await second.wait()

        states, v2 = run(main())
        assert states == {"running": 1, "queued": 1}
        assert v2.ok and v2.result == 2

    def test_failure_is_isolated_and_recorded(self):
        def boom(ctx, control):
            raise ValueError("tenant bug")

        async def main():
            async with ProgramServer() as srv:
                bad = await srv.submit(
                    CallableJob(fn=boom, name="boom", tenant="bad")
                )
                good = await srv.submit(const_job(7, tenant="good"))
                return await bad.wait(), await good.wait()

        vb, vg = run(main())
        assert vb.status is JobStatus.FAILED and not vb.ok
        assert "tenant bug" in vb.error
        assert "ValueError" in vb.traceback
        assert vg.ok and vg.result == 7

    def test_verdict_stats_and_summary(self):
        async def main():
            async with ProgramServer() as srv:
                h = await srv.submit(halo_job(seed=5))
                return await h.wait()

        v = run(main())
        assert v.ok
        assert v.stats["backend"] == v.backend
        assert v.stats["n_ranks"] == 4
        assert v.stats["traffic"]["n_messages"] > 0
        assert v.stats["clock"]["execution"] > 0.0
        # raw runtime-API calls bypass the plan-layer schedule cache
        assert v.stats["cache"]["entries"] >= 0
        line = v.summary()
        assert "done" in line and "msgs=" in line

    def test_program_job_matches_solo_run(self):
        spec = figure8_job(seed=11)

        async def main():
            async with ProgramServer() as srv:
                h = await srv.submit(spec)
                return await h.wait()

        verdict = run(main())
        assert verdict.ok
        solo = run_job_inline(figure8_job(seed=11))
        assert_verdict_results_equal(verdict.result, solo)
        assert set(verdict.result) == {"x"}


class TestPinnedSimulatedCost:
    """Virtual time, messages, bytes and the sha256 of the result of one
    served ``ProgramJob``, read from its verdict, recorded while the
    server still held each job's context for a resource audit: dropping
    the audit changed no charge, and later changes must not move one
    either."""

    def check(self, v, n_messages, total_bytes, seconds, sha):
        assert v.stats["traffic"]["n_messages"] == n_messages
        assert v.stats["traffic"]["total_bytes"] == total_bytes
        assert v.stats["clock"]["execution"] == pytest.approx(seconds,
                                                              rel=1e-12)
        assert hashlib.sha256(v.result["x"].tobytes()).hexdigest() == sha

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_served_program_job(self, backend):
        async def main():
            async with ProgramServer() as srv:
                h = await srv.submit(figure8_job(seed=3, n=60, e=240,
                                                 backend=backend))
                return await h.wait()

        v = run(main())
        assert v.ok and v.backend == v.stats["backend"] == backend
        self.check(v, 92, 7224, 0.005118329999999999,
                   "9fdc79a9094de52664ad89c141f21800"
                   "2f0ccd27a7ebe4c0c04e412cd6f2351e")


# ----------------------------------------------------------------------
# concurrency limits
# ----------------------------------------------------------------------
class TestConcurrencyLimits:
    def test_per_tenant_cap_is_one(self):
        import threading
        import time

        lock = threading.Lock()
        counts = {"t": 0, "max_t": 0}

        def fn(ctx, control):
            with lock:
                counts["t"] += 1
                counts["max_t"] = max(counts["max_t"], counts["t"])
            time.sleep(0.1)
            with lock:
                counts["t"] -= 1

        async def main():
            cfg = ServerConfig(max_concurrency=4, per_tenant=1)
            async with ProgramServer(cfg) as srv:
                handles = [
                    await srv.submit(CallableJob(fn=fn, tenant="flood"))
                    for _ in range(3)
                ]
                for h in handles:
                    v = await h.wait()
                    assert v.ok

        run(main())
        assert counts["max_t"] == 1

    def test_tenants_run_concurrently_under_global_cap(self):
        import threading
        import time

        lock = threading.Lock()
        counts = {"g": 0, "max_g": 0}

        def fn(ctx, control):
            with lock:
                counts["g"] += 1
                counts["max_g"] = max(counts["max_g"], counts["g"])
            time.sleep(0.2)
            with lock:
                counts["g"] -= 1

        async def main():
            cfg = ServerConfig(max_concurrency=4, per_tenant=1)
            async with ProgramServer(cfg) as srv:
                handles = [
                    await srv.submit(CallableJob(fn=fn, tenant=t))
                    for t in ("a", "b", "c")
                ]
                for h in handles:
                    v = await h.wait()
                    assert v.ok

        run(main())
        # three distinct tenants, cap 4: they overlap on the pool
        assert counts["max_g"] >= 2

    def test_global_cap_bounds_overlap(self):
        import threading
        import time

        lock = threading.Lock()
        counts = {"g": 0, "max_g": 0}

        def fn(ctx, control):
            with lock:
                counts["g"] += 1
                counts["max_g"] = max(counts["max_g"], counts["g"])
            time.sleep(0.1)
            with lock:
                counts["g"] -= 1

        async def main():
            cfg = ServerConfig(max_concurrency=2, per_tenant=2)
            async with ProgramServer(cfg) as srv:
                handles = [
                    await srv.submit(
                        CallableJob(fn=fn, tenant=f"t{i % 3}")
                    )
                    for i in range(6)
                ]
                for h in handles:
                    await h.wait()

        run(main())
        assert 1 <= counts["max_g"] <= 2


# ----------------------------------------------------------------------
# bounded admission
# ----------------------------------------------------------------------
class TestAdmission:
    def test_reject_policy_raises_admission_full(self):
        release = threading.Event()

        async def main():
            cfg = ServerConfig(max_concurrency=1, queue_limit=2,
                               admission="reject")
            async with ProgramServer(cfg) as srv:
                h1 = await srv.submit(gated_job(release, name="hog"))
                h2 = await srv.submit(const_job(2))
                try:
                    with pytest.raises(AdmissionFull):
                        await srv.submit(const_job(3))
                finally:
                    release.set()
                await h1.wait()
                await h2.wait()
                # room freed: admission works again
                h3 = await srv.submit(const_job(3))
                assert (await h3.wait()).ok

        run(main())

    def test_wait_policy_applies_backpressure(self):
        release = threading.Event()

        async def main():
            cfg = ServerConfig(max_concurrency=1, queue_limit=1,
                               admission="wait")
            async with ProgramServer(cfg) as srv:
                await srv.submit(gated_job(release, name="hog"))

                second = asyncio.ensure_future(
                    srv.submit(const_job(2, name="waiter"))
                )
                try:
                    await asyncio.sleep(0.1)
                    # the submit coroutine is suspended, nothing admitted
                    assert not second.done()
                    assert srv.stats()["admitted"] == 1
                finally:
                    release.set()
                handle2 = await asyncio.wait_for(second, timeout=5)
                v2 = await handle2.wait()
                assert v2.ok and v2.result == 2

        run(main())

    def test_backpressured_submit_rejected_on_drain(self):
        release = threading.Event()

        async def main():
            cfg = ServerConfig(max_concurrency=1, queue_limit=1,
                               admission="wait")
            srv = ProgramServer(cfg)
            await srv.submit(gated_job(release, name="hog"))
            second = asyncio.ensure_future(srv.submit(const_job(2)))
            try:
                await asyncio.sleep(0.05)
                assert not second.done()
            finally:
                release.set()
            await srv.close()
            with pytest.raises(ServerClosed):
                await second

        run(main())


# ----------------------------------------------------------------------
# cancellation + timeout
# ----------------------------------------------------------------------
class TestCancelAndTimeout:
    @staticmethod
    def abandon(first, then=()):
        """Submit ``first`` to a one-slot server, give it 0.1 s, submit
        ``then`` and return from the loop with every job pending:
        ``asyncio.run`` cancels their tasks.  Returns the server (its
        pool shut down) and the jobs' verdicts."""
        servers = []

        async def main():
            srv = ProgramServer(ServerConfig(max_concurrency=1))
            servers.append(srv)
            handles = [await srv.submit(spec) for spec in first]
            await asyncio.sleep(0.1)
            handles += [await srv.submit(spec) for spec in then]
            return [h.job_id for h in handles]

        ids = run(main())
        srv, = servers
        srv._pool.shutdown(wait=True)
        return srv, [srv.verdict(i) for i in ids]

    def test_cancel_queued_job(self):
        """Jobs still waiting for the one slot when their loop ends (one
        submitted just before it ends) are recorded cancelled."""
        _, (_, waiting, unstarted) = self.abandon(
            [sleeper_job(30, name="hog"), const_job(2)], [const_job(3)])
        for v in (waiting, unstarted):
            assert v.status is JobStatus.CANCELLED
            assert v.error == "cancelled while queued"

    def test_cancel_running_job(self):
        """A job running when its loop ends is recorded cancelled at
        once, and its thread is asked to stop: a cooperative sleeper
        returns without sleeping out its 30 s."""
        srv, (v,) = self.abandon([sleeper_job(30, name="hog")])
        assert v.status is JobStatus.CANCELLED
        assert v.error == "cancelled while running"
        assert srv.stats()["by_status"] == {"cancelled": 1}

    def test_timeout_records_verdict_and_run_continues(self):
        async def main():
            async with ProgramServer() as srv:
                slow = await srv.submit(
                    sleeper_job(30, name="slow", timeout=0.2)
                )
                quick = await srv.submit(const_job(1, tenant="other"))
                vs = await slow.wait()
                vq = await quick.wait()
                return vs, vq

        vs, vq = run(main())
        assert vs.status is JobStatus.TIMEOUT
        assert "deadline" in vs.error
        assert vq.ok

    def test_default_timeout_from_config(self):
        async def main():
            cfg = ServerConfig(default_timeout=0.2)
            async with ProgramServer(cfg) as srv:
                v = await (await srv.submit(
                    sleeper_job(30, name="slow")
                )).wait()
                # per-spec timeout overrides the default upward
                ok = await (await srv.submit(
                    sleeper_job(0.01, name="quick", timeout=5)
                )).wait()
                return v, ok

        v, ok = run(main())
        assert v.status is JobStatus.TIMEOUT
        assert ok.ok

    def test_uncooperative_timeout_still_records(self):
        async def main():
            async with ProgramServer() as srv:
                h = await srv.submit(
                    sleeper_job(0.6, name="stubborn", timeout=0.1,
                                cooperative=False)
                )
                v = await h.wait()
                in_flight = srv.stats()["stragglers"]
                await srv.close()
                return v, in_flight, srv.stats()["stragglers"]

        v, before, after = run(main())
        assert v.status is JobStatus.TIMEOUT
        assert before == 1  # the thread outlived its verdict...
        assert after == 0   # ...and drain reaped it

    def test_control_sleep_raises_on_stop(self):
        control = JobControl()
        control.stop()
        with pytest.raises(JobCancelled):
            control.sleep(10)
        with pytest.raises(JobCancelled):
            control.check()


# ----------------------------------------------------------------------
# validation + misuse
# ----------------------------------------------------------------------
class TestValidation:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServerConfig(max_concurrency=0)
        with pytest.raises(ValueError):
            ServerConfig(per_tenant=0)
        with pytest.raises(ValueError):
            ServerConfig(queue_limit=0)
        with pytest.raises(ValueError):
            ServerConfig(admission="fifo")
        with pytest.raises(ValueError):
            ServerConfig(default_timeout=0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            const_job(1, n_ranks=0)
        with pytest.raises(ValueError):
            const_job(1, timeout=-1)
        with pytest.raises(TypeError):
            JobSpec()  # abstract

    def test_submit_rejects_non_spec(self):
        async def main():
            async with ProgramServer() as srv:
                with pytest.raises(TypeError):
                    await srv.submit(lambda ctx, control: 1)

        run(main())

    def test_unknown_job_id(self):
        srv = ProgramServer()
        with pytest.raises(KeyError):
            srv.verdict(999)
        asyncio.run(srv.close())

    def test_spec_backend_is_honoured(self):
        async def main():
            async with ProgramServer() as srv:
                h = await srv.submit(
                    const_job(1, backend="serial", name="pinned")
                )
                return await h.wait()

        v = run(main())
        assert v.ok and v.backend == "serial"

    def test_failed_context_build_is_a_tenant_failure(self):
        async def main():
            async with ProgramServer() as srv:
                h = await srv.submit(const_job(1, backend="no-such"))
                other = await srv.submit(const_job(2))
                return await h.wait(), await other.wait()

        vbad, vok = run(main())
        assert vbad.status is JobStatus.FAILED
        assert "no-such" in vbad.error
        assert vbad.backend == "no-such"
        assert vok.ok

    def test_result_survives_numpy_payloads(self):
        payload = np.arange(12.0).reshape(3, 4)

        async def main():
            async with ProgramServer() as srv:
                h = await srv.submit(
                    CallableJob(fn=lambda ctx, control: payload * 2)
                )
                return await h.wait()

        v = run(main())
        np.testing.assert_array_equal(v.result, payload * 2)
