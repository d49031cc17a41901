#!/usr/bin/env python3
"""Which ``src/repro`` functions each kind of run enters: ``REACH.json``.

Two modes, both from the repository root, no environment needed::

    python benchmarks/reach.py           # record sets A, B and C
    python benchmarks/reach.py --check   # re-record A and B, gate them

The sets:

``A``  what the system is for: the seven ``examples/*.py``,
       ``benchmarks/e2e/run.py --smoke`` and ``benchmarks/tables.py``;
``B``  the five ``benchmarks/bench_*.py`` scripts;
``C``  tier 1 (``python -m pytest -q``).

Every Python process a set starts, e2e's workload subprocesses
included, imports a generated ``sitecustomize.py`` placed first on
``PYTHONPATH``.  It installs a ``sys.setprofile`` and
``threading.setprofile`` hook (so the job server's worker threads are
seen too) that logs the
``(co_filename, co_firstlineno)`` of each code object entered and writes
them out at exit.  :func:`inventory` maps the ``src/repro`` ones to
functions with ``ast`` (a decorated function's first line is its first
decorator's, as in ``co_firstlineno``).  ``REPRO_BACKEND`` is removed
from the sets' environment, so every recording sees the default backend.

A function that neither A nor B reaches has no production caller.  It
must be in :data:`ALLOWLIST` with one reason from :data:`REASONS`, and an
allowlisted function that A or B reaches is a stale entry.  The first
mode writes ``REACH.json`` (C is recorded so the report can tell
functions only tests reach from those nothing reaches); the second
leaves it alone and fails on either kind of entry in what it recorded
now.  ``tests/test_reach.py`` applies the same rules to ``REACH.json``
without recording anything.  ``BENCH_tables.json``, which ``tables.py``
rewrites, must come out byte-identical; it is put back and the run fails
otherwise.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
REACH = ROOT / "REACH.json"
TABLES = ROOT / "BENCH_tables.json"

PY = sys.executable
#: set -> the commands it runs, argv relative to the repository root
SETS: dict[str, list[list[str]]] = {
    "A": [[PY, str(p.relative_to(ROOT))]
          for p in sorted((ROOT / "examples").glob("*.py"))]
    + [[PY, "benchmarks/e2e/run.py", "--smoke"],
       [PY, "benchmarks/tables.py"]],
    "B": [[PY, str(p.relative_to(ROOT))]
          for p in sorted(HERE.glob("bench_*.py"))],
    "C": [[PY, "-m", "pytest", "-q", "-p", "no:cacheprovider"]],
}
#: the sets that make a production caller
PRODUCTION = ("A", "B")

#: the closed list of reasons a function may have no production caller
REASONS = {
    "interface": "declares or implements an interface method: an abstract "
                 "method, or a protocol hook whose default would be wrong",
    "frozen": "the frozen benchmark (benchmarks/e2e) calls or probes it",
    "error-path": "runs only when the input is wrong",
    "reference": "a test oracle kept in src/",
    "debug": "a debugging aid: a __repr__ or __str__, or a statistic "
             "for a report",
    "language": "reached from mini-Fortran-D source",
    "roadmap-N": "owned by open ROADMAP item N, which decides it",
}
_ROADMAP = re.compile(r"roadmap-\d+[a-z]?")


def _each(reason: str, *names: str) -> dict[str, str]:
    return dict.fromkeys(names, reason)


#: ``module:qualname`` -> its reason (a key of :data:`REASONS`, with the
#: item number for ``roadmap-N``)
ALLOWLIST: dict[str, str] = {
    **_each(
        "interface",
        "repro.core.backends.base:Backend.build_schedule",
        "repro.core.backends.base:Backend.chaos_hash",
        "repro.core.backends.base:Backend.make_key_store",
        "repro.core.backends.base:Backend.run_stage",
        "repro.core.backends.base:Backend.translation_lookup",
        "repro.core.distribution:Distribution.owner",
        "repro.core.distribution:Distribution.local_index",
        "repro.core.distribution:IrregularDistribution.owner",
        "repro.core.distribution:IrregularDistribution.local_index",
        "repro.partitioners.base:Partitioner.partition",
        "repro.partitioners.base:Partitioner.parallel_cost",
        "repro.partitioners.geometric:RecursiveBisection._axis_values",
        "repro.serve.job:JobSpec.run",
        "repro.sim.topology:Topology.hops",
        "repro.sim.topology:Topology.hop_matrix",
        # the topology of a rank count that is not a power of two
        "repro.sim.topology:FullCrossbar.hops",
        "repro.sim.topology:FullCrossbar.hop_matrix",
        # a copy of an arena rebuilds its views over the copied buffer;
        # the default copy detaches them, and the executor would read
        # the stale buffer
        "repro.core.compiled:RankArena.__reduce__",
        # a copied plan is rebuilt through from_slot_order; the default
        # copy would unpickle its buffers writeable
        "repro.core.compiled:CommPlan.__reduce__",
    ),
    # tracer.py's PROBES and COUNTERS name these
    **_each(
        "frozen",
        "repro.sim.machine:Machine.bcast",
        "repro.sim.machine:Machine.allreduce",
        "repro.core.remap:remap_global_values",
        "repro.core.executor:scatter",
        "repro.core.executor:scatter_phase",
        "repro.core.lightweight:append_phase",
    ),
    **_each(
        "error-path",
        "repro.core.compiled:CommPlan.__init__",
        "repro.core.distribution:Layout.__init__",
        "repro.core.compiled:CommPlan.send_max",
        "repro.core.compiled:_rank_max",
        "repro.core.hashtable:_outside",
        "repro.lang.errors:FortranDError.__init__",
        "repro.core.backends.base:available_backends",
    ),
    "repro.apps.charmm.neighbors:brute_force_nonbonded_list": "reference",
    **_each(
        "debug",
        "repro.core.backends.base:Backend.__repr__",
        "repro.core.context:ExecutionContext.__repr__",
        "repro.core.executor:PipelinePhase.__repr__",
        "repro.core.translation:TranslationTable.__repr__",
        "repro.serve.verdict:JobStatus.__str__",
        "repro.sim.clock:Clock.__repr__",
        "repro.sim.machine:Machine.__repr__",
        # partners per atom, which ROADMAP item 1 reports
        "repro.apps.charmm.neighbors:list_stats",
    ),
    # DISTRIBUTE r(CYCLIC) builds it: tests/test_lang_edge_cases.py::
    # TestBindingsAndState::test_cyclic_distribution_scheme
    **_each(
        "language",
        "repro.core.distribution:CyclicDistribution.owner",
        "repro.core.distribution:CyclicDistribution.local_index",
    ),
    "repro.core.backends.serial:SerialBackend.remap_array": "roadmap-8",
    # the clock and traffic accessors of the trace/metrics spine
    **_each(
        "roadmap-5",
        "repro.sim.clock:Clock.time",
        "repro.sim.clock:Clock.time.setter",
        "repro.sim.clock:Clock.categories",
        "repro.sim.clock:Clock.category",
        "repro.sim.clock:Clock.snapshot",
        "repro.sim.clock:Clock.reset",
        "repro.sim.clock:ClockArray.__len__",
        "repro.sim.clock:ClockArray.__iter__",
        "repro.sim.machine:Machine.mean_category_time",
        "repro.sim.machine:Machine.reset_traffic",
        "repro.sim.message:TrafficStats.__sub__",
        "repro.sim.message:TrafficStats.copy",
        "repro.sim.message:TrafficStats.reset",
    ),
}


def reason_ok(reason: str) -> bool:
    return (reason in REASONS and reason != "roadmap-N") \
        or bool(_ROADMAP.fullmatch(reason))


# ----------------------------------------------------------------------
# the functions src/ defines
# ----------------------------------------------------------------------
def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _defs(tree: ast.AST):
    """``(qualname, node)`` for every function in ``tree``, nested ones
    as ``outer.<locals>.inner`` like ``__qualname__``."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                deco = child.decorator_list[:1]
                if deco and isinstance(deco[0], ast.Attribute) \
                        and deco[0].attr in ("setter", "deleter"):
                    name += "." + deco[0].attr
                yield name, child
                yield from walk(child, f"{name}.<locals>.")
            else:
                yield from walk(child, prefix)
    yield from walk(tree, "")


def inventory() -> dict[str, tuple[str, int, int]]:
    """``module:qualname`` -> ``(path, first line, last line)`` of every
    function ``src/repro`` defines; the first line is the first
    decorator's, as in ``co_firstlineno``."""
    out = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = _module_name(path)
        for qualname, node in _defs(ast.parse(path.read_text())):
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            name = f"{module}:{qualname}"
            if name in out:
                raise ValueError(f"{name} is defined twice")
            out[name] = (str(path), first, node.end_lineno)
    return out


# ----------------------------------------------------------------------
# the recorder
# ----------------------------------------------------------------------
SITECUSTOMIZE = '''\
import atexit, os, sys, threading


def _install(environ=os.environ):
    out = environ["REACH_OUT"]
    seen = set()

    # everything the hook touches is bound here: module globals are
    # cleared at interpreter shutdown while daemon threads still run
    def hook(frame, event, arg, seen=seen, add=seen.add):
        if event == "call":
            code = frame.f_code
            key = (code.co_filename, code.co_firstlineno)
            if key not in seen:
                add(key)

    def dump(setprofile=sys.setprofile, realpath=os.path.realpath,
             getpid=os.getpid, join=os.path.join):
        setprofile(None)
        threading.setprofile(None)
        lines = {f"{realpath(f)}\\t{n}\\n" for f, n in list(seen)}
        path = join(out, f"{getpid()}-{id(seen)}.txt")
        with open(path, "w") as fh:
            fh.writelines(sorted(lines))

    atexit.register(dump)
    threading.setprofile(hook)
    sys.setprofile(hook)


_install()
del _install
'''


def record(name: str) -> tuple[set[tuple[str, int]], float]:
    """Run set ``name`` under the recorder: the ``(path, first line)``
    of every code object entered, and the set's wall time."""
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        hook_dir = Path(tmp, "hook")
        out = Path(tmp, "out")
        hook_dir.mkdir()
        out.mkdir()
        (hook_dir / "sitecustomize.py").write_text(SITECUSTOMIZE)
        env = dict(os.environ, REACH_OUT=str(out),
                   REPRO_BENCH_RESULTS_DIR=str(Path(tmp, "results")))
        env.pop("REPRO_BACKEND", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(hook_dir), str(SRC)]
            + [p for p in [os.environ.get("PYTHONPATH")] if p])
        tables = TABLES.read_bytes()
        t0 = time.perf_counter()
        try:
            for argv in SETS[name]:
                print(f"[{name}] {' '.join(argv[1:])}", file=sys.stderr,
                      flush=True)
                proc = subprocess.run(argv, cwd=ROOT, env=env,
                                      capture_output=True, text=True)
                if proc.returncode == 0:
                    continue
                msg = f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}\n" \
                    f"set {name}: {' '.join(argv[1:])} exited " \
                    f"{proc.returncode}"
                if name in PRODUCTION:
                    raise SystemExit(msg)
                print(msg, file=sys.stderr)  # C's draws are only a report
        finally:
            if TABLES.read_bytes() != tables:
                TABLES.write_bytes(tables)
                raise SystemExit(f"set {name} changed {TABLES.name}; "
                                 "the committed file was put back")
        wall = time.perf_counter() - t0
        seen = set()
        for dump in out.iterdir():
            for line in dump.read_text().splitlines():
                path, first = line.rsplit("\t", 1)
                seen.add((path, int(first)))
    return seen, wall


def reached(funcs, entered) -> set[str]:
    """The names in ``funcs`` whose code objects were ``entered``."""
    by_key = {(os.path.realpath(path), first): name
              for name, (path, first, _) in funcs.items()}
    return {by_key[key] for key in entered if key in by_key}


# ----------------------------------------------------------------------
# the gate
# ----------------------------------------------------------------------
def problems(funcs, reach: dict[str, str]) -> list[str]:
    """What breaks the rules, one line each: ``funcs`` is
    :func:`inventory`, ``reach`` maps a function to the sets (letters)
    that reach it."""
    out = [f"{n}: not in REACH.json (re-record it)"
           for n in sorted(funcs.keys() - reach.keys())]
    out += [f"{n}: in REACH.json but no longer defined"
            for n in sorted(reach.keys() - funcs.keys())]
    for name, reason in sorted(ALLOWLIST.items()):
        if not reason_ok(reason):
            out.append(f"{name}: allowlisted for {reason!r}, which is not "
                       f"one of {sorted(REASONS)}")
        if name not in funcs:
            out.append(f"{name}: allowlisted but not defined")
        elif set(reach.get(name, "")) & set(PRODUCTION):
            out.append(f"{name}: allowlisted ({reason}) but reached by "
                       f"{reach[name]} (a stale entry)")
    for name in sorted(funcs.keys() & reach.keys()):
        if not set(reach[name]) & set(PRODUCTION) and name not in ALLOWLIST:
            tests = " (tests reach it)" if "C" in reach[name] else ""
            out.append(f"{name}: no production caller{tests} and not "
                       "allowlisted")
    return out


def summary(funcs, reach: dict[str, str], names) -> dict[str, list[int]]:
    """Reached-by class -> ``[functions, body lines]``; ``nothing`` is
    reached by none of the recorded sets ``names``."""
    labels = {"A": "A", "B": "B only", "C": "tests only"}
    rows = {labels[n]: [0, 0] for n in names} | {"nothing": [0, 0]}
    for name, (_, first, last) in funcs.items():
        row = next((labels[n] for n in names if n in reach.get(name, "")),
                   "nothing")
        rows[row][0] += 1
        rows[row][1] += last - first + 1
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="re-record sets A and B and gate them; "
                         "REACH.json is not written")
    args = ap.parse_args(argv)
    funcs = inventory()
    names = PRODUCTION if args.check else tuple(SETS)
    hits, walls = {}, {}
    for name in names:
        entered, walls[name] = record(name)
        hits[name] = reached(funcs, entered)
        print(f"[{name}] {len(hits[name])} functions in "
              f"{walls[name]:.0f} s", file=sys.stderr)
    reach = {n: "".join(s for s in names if n in hits[s]) for n in funcs}
    rows = summary(funcs, reach, names)
    for row, (count, lines) in rows.items():
        print(f"{row:>10}: {count:4d} functions, {lines:5d} body lines")
    if not args.check:
        REACH.write_text(json.dumps({
            "sets": {n: {"commands": [" ".join(["python"] + a[1:])
                                      for a in SETS[n]],
                         "wall_s": round(walls[n], 1)} for n in names},
            "summary": rows,
            "functions": dict(sorted(reach.items())),
        }, indent=1) + "\n")
        print(f"wrote {REACH.relative_to(ROOT)}")
    bad = problems(funcs, reach)
    for line in bad:
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
