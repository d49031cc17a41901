"""Timing, calibration and checking for one workload in one process.

Host-time metrics are **calibrated user-CPU seconds**, per pass::

    user_cpu_s * CAL_NOMINAL_S / mean(cal_before, cal_after)

where ``cal_*`` is the user-CPU time of a fixed calibration kernel run
immediately before and after the timed pass, and the reported value is
the median over the passes.  On the Firecracker guest this was written
on, wall-clock and sys time do not repeat (first-touch page faults cost
up to 13 s of sys for one CHARMM run) and user time itself moves with
the host: over ten minutes the median of 7 raw passes ranged over 50 %,
the median of 7 calibrated passes over 6-19 % (README.md has the
measurements, including why the kernel must not be shorter than it is).
"""

from __future__ import annotations

import gc
import hashlib
import resource
import sys
import time
import traceback
from contextlib import contextmanager

import numpy as np

#: user-CPU seconds the calibration kernel takes on the reference sandbox
#: when it is quiet; fixes the scale of calibrated seconds (a constant,
#: never re-measured)
CAL_NOMINAL_S = 0.125


class Calibration:
    """A fixed mix of what the program's hot paths are made of: a
    pure-Python loop, numpy fancy gather, stable argsort + ``bincount`` +
    ``np.add.at``, and cache-resident vector arithmetic, about a quarter
    of the time each.  Inputs are fixed (never derived from ``--seed``)."""

    def __init__(self):
        rng = np.random.default_rng(20240917)
        n = 1 << 18
        self.src = rng.standard_normal((n, 3))
        self.idx = rng.integers(0, n, size=n)
        self.small = self.idx.astype(np.uint16)
        self.acc = np.zeros(n)
        self.val = rng.standard_normal(n)
        self.a = rng.standard_normal(1 << 16)
        self.b = rng.standard_normal(1 << 16)
        self.samples: list[float] = []

    def __call__(self) -> float:
        t0 = user_cpu()
        total = 0
        for i in range(400000):
            total += (i * 7) % 13
        for _ in range(5):
            self.src[self.idx]
        for _ in range(10):
            np.argsort(self.small, kind="stable")
            np.bincount(self.idx, minlength=self.idx.size)
            np.add.at(self.acc, self.idx, self.val)
        for _ in range(200):
            np.sqrt(self.a * self.a + self.b * self.b)
        dt = user_cpu() - t0
        self.samples.append(dt)
        return dt


def user_cpu() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


def sys_cpu() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_stime


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(arrays: dict) -> str:
    """Byte-exact fingerprint of one operation's output arrays."""
    h = hashlib.sha256()
    for key in sorted(arrays):
        a = np.ascontiguousarray(arrays[key])
        h.update(f"{key}:{a.dtype}:{a.shape};".encode())
        h.update(a.tobytes())
    return h.hexdigest()


class Marks:
    """Named sub-phase timers a workload may set inside a pass
    (``with mark("lang.compile_s"): ...``); user-CPU seconds."""

    def __init__(self):
        self.seconds: dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str):
        t0 = user_cpu()
        try:
            yield
        finally:
            self.seconds[name] = (self.seconds.get(name, 0.0)
                                  + user_cpu() - t0)


class Pass:
    """Everything measured in one set-up + steady pass."""

    def __init__(self):
        self.ok = False
        self.error: str | None = None
        self.setup_user = self.host_user = 0.0
        self.sys = self.wall = 0.0
        self.cpu_ns = 0  # process CPU (user+sys) over set-up + steady
        self.scale = 0.0  # calibrated seconds per user-CPU second
        self.marks: dict[str, float] = {}
        self.advisory: dict[str, float] = {}
        self.sim_s = float("nan")
        self.counters: dict[str, float] = {}
        self.outputs: dict[str, dict | None] = {}
        self.digests: dict[str, str | None] = {}
        self.trace: dict | None = None

    @property
    def setup_s(self) -> float:
        return self.setup_user * self.scale

    @property
    def host_s(self) -> float:
        return self.host_user * self.scale

    @property
    def total_s(self) -> float:
        return (self.setup_user + self.host_user) * self.scale


def run_pass(workload, inputs, calibration, tracer=None,
             keep_outputs: bool = False, extras: bool = False) -> Pass:
    """One pass: set-up, steady phase, then (untimed) result collection.

    ``gc`` is off inside the timed regions; the calibration kernel runs
    right after the steady phase and its mean with the sample taken
    before the pass scales the pass.  A pass that raises is recorded as
    failed, never re-raised.
    """
    p = Pass()
    marks = Marks()
    gc.collect()
    gc.disable()
    try:
        if tracer is not None:
            tracer.start()
        w0, s0, c0 = time.perf_counter(), sys_cpu(), time.process_time_ns()
        u0 = user_cpu()
        state = workload.setup(inputs, marks)
        u1 = user_cpu()
        workload.steady(inputs, state, marks)
        u2 = user_cpu()
        p.cpu_ns = time.process_time_ns() - c0
        if tracer is not None:
            p.trace = tracer.stop()
        p.setup_user, p.host_user = u1 - u0, u2 - u1
        p.sys, p.wall = sys_cpu() - s0, time.perf_counter() - w0
        gc.enable()
        cal_before = calibration.samples[-1]
        p.scale = CAL_NOMINAL_S / (0.5 * (cal_before + calibration()))
        p.advisory = workload.advisory(state)
        p.sim_s, p.counters, outputs = workload.collect(inputs, state)
        if extras:
            workload.extras(inputs, marks)
        p.marks = marks.seconds
        p.digests = {op: None if out is None else digest(out)
                     for op, out in outputs.items()}
        if keep_outputs:
            p.outputs = outputs
        p.ok = True
    except Exception:
        p.error = traceback.format_exc()
        if tracer is not None:
            tracer.stop()
    finally:
        gc.enable()
    return p


def median_pass(passes: list[Pass]) -> Pass:
    """The pass whose calibrated total is the (lower) median."""
    return sorted(passes, key=lambda p: p.total_s)[(len(passes) - 1) // 2]


def measure(workload, inputs, seconds: float, tracer=None,
            min_passes: int = 3) -> dict:
    """Warm up once, then time passes for ``seconds`` (at least
    ``min_passes``), verify the first pass against the oracle and every
    other pass against the first, and return the raw record."""
    calibration = Calibration()
    calibration()  # touch its arrays
    warm = run_pass(workload, inputs, calibration)
    if not warm.ok:
        print(warm.error, file=sys.stderr)
    passes: list[Pass] = []
    baseline: list[Pass] = []
    deadline = time.perf_counter() + seconds
    if tracer is not None:
        # untraced passes first: the base of trace.overhead (and of the
        # workload's own untraced extras, e.g. the inline fleet)
        cut = time.perf_counter() + 0.35 * seconds
        while len(baseline) < 2 or time.perf_counter() < cut:
            baseline.append(run_pass(workload, inputs, calibration,
                                     extras=True))
        tracer.install(sys.modules[type(workload).__module__])
        workload.tracer = tracer
        min_passes = 2
    while len(passes) < min_passes or time.perf_counter() < deadline:
        passes.append(run_pass(workload, inputs, calibration, tracer=tracer,
                               keep_outputs=not passes))

    # ---- correctness: oracle on the first pass, digests on the rest ----
    ops = workload.n_ops(inputs)
    first = passes[0]
    failures: list[str] = []
    failed_ops = 0
    bad_ops: set[str] = set()
    if first.ok:
        bad_ops = set(workload.verify(inputs, first.outputs, first.counters,
                                      failures))
        first.outputs = {}
    for i, p in enumerate(passes):
        if not p.ok:
            failed_ops += ops
            failures.append(f"pass {i} raised:\n{p.error}")
            continue
        if not first.ok:
            failed_ops += ops
            continue
        bad = set(bad_ops)
        for op, dg in p.digests.items():
            if dg is None or dg != first.digests.get(op):
                bad.add(op)
        if p.sim_s != first.sim_s or p.counters != first.counters:
            failures.append(f"pass {i}: simulated quantities differ from "
                            f"pass 0 ({p.sim_s!r} vs {first.sim_s!r})")
            bad.update(p.digests)
        if bad - bad_ops:
            failures.append(f"pass {i}: outputs differ from pass 0 for "
                            f"{sorted(bad - bad_ops)[:5]}")
        failed_ops += len(bad)
    return {
        "passes": [p for p in passes if p.ok],
        "baseline": [p for p in baseline if p.ok],
        "attempted": ops * len(passes),
        "failed": failed_ops,
        "failures": failures,
        "cal_samples": calibration.samples,
    }
