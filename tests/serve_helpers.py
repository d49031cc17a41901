"""Shared job builders and check helpers for the serve test suite.

Not a test module (no ``test_`` prefix); imported by
``test_serve_server.py`` / ``test_serve_drain.py`` /
``test_serve_soak.py`` the same way the suites import ``conftest``.
"""

from __future__ import annotations

import threading

import numpy as np

from conftest import block_table

from repro.serve import CallableJob, ProgramJob

#: thread-name prefix of the server's executor pool (see server.py)
SERVE_THREAD_PREFIX = "repro-serve"


def figure8_job(*, seed=0, n=30, e=120, tenant="default", name="fig8",
                **kw) -> ProgramJob:
    """The paper's Figure-8 edge reduction as a submittable program job.

    Bindings are generated from ``seed`` at spec-construction time, so
    two specs built with the same seed carry bitwise-identical initial
    state (and ``ProgramJob.run`` copies them, so one spec can be run
    served and solo).
    """
    src = f"""
          REAL x({n}), y({n})
          INTEGER ia({e}), ib({e})
C$ DECOMPOSITION reg({n})
C$ DISTRIBUTE reg(BLOCK)
C$ ALIGN x, y WITH reg
          FORALL i = 1, {e}
            REDUCE(SUM, x(ia(i)), y(ib(i)))
          END DO
"""
    rng = np.random.default_rng(seed)
    bindings = dict(
        x=rng.standard_normal(n),
        y=rng.standard_normal(n),
        ia=rng.integers(1, n + 1, e),
        ib=rng.integers(1, n + 1, e),
    )
    return ProgramJob(source=src, bindings=bindings, fetch=("x",),
                      seed=seed, tenant=tenant, name=name, **kw)


def make_halo_fn(n=48, crash=False, seed=0):
    """A runtime-API workload: hash → schedule → gather, optional crash.

    Deterministic from ``seed`` (the job's), so the served result is
    bitwise-comparable against ``run_job_inline``.  With ``crash=True``
    the tenant does real backend work first and then raises mid-run —
    the shape the isolation tests need.
    """

    def fn(ctx, control):
        from repro.core.api import ChaosRuntime

        rt = ChaosRuntime(ctx)  # shares the job's context
        tt = block_table(rt.machine, n)
        rng = np.random.default_rng(seed)
        idx = [rng.integers(0, n, size=n // 2) for _ in range(ctx.n_ranks)]
        rt.hash_indirection(tt, idx, "halo")
        sched = rt.build_schedule(tt, "halo")
        x = rt.distribute(np.arange(n, dtype=np.float64), tt)
        ghosts = rt.gather(sched, x)
        control.check()
        if crash:
            raise RuntimeError("tenant crashed mid-run")
        flat = [g for g in ghosts if g is not None and len(g)]
        return np.concatenate(flat) if flat else np.zeros(0)

    return fn


def halo_job(*, seed=0, tenant="default", name="halo", crash=False,
             **kw) -> CallableJob:
    return CallableJob(fn=make_halo_fn(crash=crash, seed=seed), seed=seed,
                       tenant=tenant, name=name, **kw)


def sleeper_job(seconds, *, tenant="default", name="sleeper",
                cooperative=True, **kw) -> CallableJob:
    """A job that sleeps; cooperative sleepers wake on control.stop()."""

    def fn(ctx, control):
        if cooperative:
            control.sleep(seconds)
        else:
            import time

            time.sleep(seconds)
        return "slept"

    return CallableJob(fn=fn, tenant=tenant, name=name, **kw)


def gated_job(release, *, name="gated", **kw) -> CallableJob:
    """A job that holds its worker until the test sets the
    ``threading.Event`` ``release`` (30 s at most)."""

    def fn(ctx, control):
        release.wait(30)
        return "released"

    return CallableJob(fn=fn, name=name, **kw)


def serve_threads_alive() -> list[str]:
    """Names of still-alive server executor threads (post-close: [])."""
    return [
        t.name for t in threading.enumerate()
        if t.name.startswith(SERVE_THREAD_PREFIX) and t.is_alive()
    ]


def assert_verdict_results_equal(served, solo) -> None:
    """Bitwise equality between a served result and a solo-run result."""
    assert type(served) is type(solo)
    if isinstance(served, dict):
        assert served.keys() == solo.keys()
        for k in served:
            np.testing.assert_array_equal(served[k], solo[k])
    else:
        np.testing.assert_array_equal(served, solo)
