"""Every ``src/`` function has a production caller, or a reason.

``benchmarks/reach.py`` records which ``src/repro`` functions the
examples, e2e ``--smoke`` and ``tables.py`` (set A), the ``bench_*.py``
scripts (B) and tier 1 (C) enter, into the committed ``REACH.json``.
These tests read ``ast`` and that file only; nothing is recorded here.
They fail when ``src/`` and ``REACH.json`` name different functions, when
a function that neither A nor B reaches is not on the allowlist, and
when an allowlist entry is stale or has no reason from the closed list.
After changing ``src/``, re-record with ``python benchmarks/reach.py``.
"""

import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import sys
from functools import cached_property
from pathlib import Path

import pytest
from conftest import count_calls

import repro

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "reach", ROOT / "benchmarks" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


@pytest.fixture(scope="module")
def funcs():
    return reach.inventory()


@pytest.fixture(scope="module")
def recorded():
    return json.loads((ROOT / "REACH.json").read_text())["functions"]


def test_reach_json_names_every_function(funcs, recorded):
    assert sorted(funcs.keys() - recorded.keys()) == [], \
        "defined but not in REACH.json: run python benchmarks/reach.py"
    assert sorted(recorded.keys() - funcs.keys()) == [], \
        "in REACH.json but no longer defined: run python benchmarks/reach.py"


def test_every_function_has_a_production_caller_or_a_reason(funcs,
                                                            recorded):
    assert reach.problems(funcs, recorded) == []


def test_allowlist_reasons_come_from_the_closed_list():
    assert {r for r in reach.ALLOWLIST.values()
            if not reach.reason_ok(r)} == set()
    assert reach.reason_ok("roadmap-4a") and reach.reason_ok("roadmap-8")
    for bad in ("roadmap-N", "roadmap-", "unused", "in case"):
        assert not reach.reason_ok(bad)


@pytest.mark.parametrize("case", [
    "missing", "gone", "unreached", "bad-reason", "stale", "undefined"])
def test_the_gate_names_each_kind_of_problem(case, monkeypatch):
    funcs = {"m:f": ("m.py", 1, 2), "m:g": ("m.py", 3, 4)}
    recorded = {"m:f": "AC", "m:g": "C"}
    allow = {"m:g": "debug"}
    expect = {
        "missing": "not in REACH.json", "gone": "no longer defined",
        "unreached": "no production caller", "bad-reason": "not one of",
        "stale": "stale", "undefined": "allowlisted but not defined",
    }[case]
    if case == "missing":
        del recorded["m:f"]
    elif case == "gone":
        recorded["m:h"] = "A"
    elif case == "unreached":
        allow = {}
    elif case == "bad-reason":
        allow = {"m:g": "in case"}
    elif case == "stale":
        allow["m:f"] = "debug"
    else:
        allow["m:h"] = "debug"
    monkeypatch.setattr(reach, "ALLOWLIST", allow)
    found = reach.problems(funcs, recorded)
    assert any(expect in line for line in found), found
    monkeypatch.setattr(reach, "ALLOWLIST", {"m:g": "debug"})
    assert reach.problems(funcs, {"m:f": "AC", "m:g": "C"}) == []


def _functions(obj):
    """The plain functions behind a module or class attribute: methods,
    class and static methods, property accessors, cached properties."""
    if isinstance(obj, cached_property):
        return [obj.func]
    if isinstance(obj, property):
        return [obj.fget, obj.fset]
    return [getattr(obj, "__func__", obj)]


def test_inventory_keys_are_the_code_objects_first_lines(funcs):
    """The ``ast`` inventory keys each function the way the recorder
    sees it, ``(co_filename, co_firstlineno)``: a decorated function
    starts at its first decorator."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    package = os.path.realpath(repro.__path__[0]) + os.sep
    keys = {(os.path.realpath(path), first)
            for path, first, _ in funcs.values()}
    seen, missed = 0, []
    for name, mod in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) != name:
                continue
            members = vars(obj).values() if inspect.isclass(obj) else [obj]
            for f in (f for m in members for f in _functions(m)):
                code = getattr(f, "__code__", None)
                if code is None or "<lambda>" in f.__qualname__:
                    continue
                path = os.path.realpath(code.co_filename)
                if not path.startswith(package):
                    continue
                seen += 1
                if (path, code.co_firstlineno) not in keys:
                    missed.append(f.__qualname__)
    assert missed == []
    assert seen > len(funcs) // 2


def test_count_calls_keeps_an_outer_profiler():
    """``count_calls`` forwards every event to a profiler installed
    before it (a reach recorder) and puts that profiler back."""
    seen = []

    def outer(frame, event, arg):
        if event == "call":
            seen.append(frame.f_code.co_name)

    def probe():
        return len([1])

    previous = sys.getprofile()
    sys.setprofile(outer)
    try:
        calls = count_calls(probe)
        still = sys.getprofile()
    finally:
        sys.setprofile(previous)
    assert still is outer
    assert "probe" in seen
    assert calls["len"] == 1
