"""The paper's Tables 1-7 as committed in ``BENCH_tables.json``.

No simulation runs here: the committed file is read through the script's
own functions (``benchmarks/tables.py``, which regenerates it).  Every
claim holds with room to spare, and one broken cell in any table fails
that table's claim.
"""

import copy
import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_tables", ROOT / "benchmarks" / "tables.py")
tables = importlib.util.module_from_spec(_spec)
_path = sys.path[:]
_spec.loader.exec_module(tables)
sys.path[:] = _path  # keep benchmarks/ off the path of the other tests

DOC = tables.load()

#: (table, cell path, broken value given the table, the claim it breaks)
BREAKS = [
    ("table1", ("rows", -1, 4), lambda t: 1.4, "LB index < 1.3"),
    ("table2", ("rows", -1, 5), lambda t: t["rows"][0][5],
     "schedule regeneration falls with P"),
    ("table3", ("rows", 0, 1), lambda t: t["rows"][0][3],
     "merged comm < multiple comm"),
    *[(key, ("rows", 0, 2), lambda t: t["rows"][0][1],
       "light-weight < regular")
      for key in sorted(DOC["tables"]) if key.startswith("table4")],
    ("table5", ("rows", 0, 3), lambda t: t["rows"][0][1],
     "chain < static at P <= 32"),
    ("table6", ("rows", 1, 6), lambda t: 1.2 * t["rows"][0][6],
     "compiler total within 10% of hand"),
    ("table6", ("dx_closeness", 0), lambda t: 1.5,
     "compiler dx allclose to hand"),
    ("table7", ("rows", 0, 2), lambda t: 0.9 * t["rows"][0][4],
     "manual total <= compiler total"),
    ("table7", ("cells_differing", 0), lambda t: 3,
     "cells whose counts differ < 1"),
]


def test_every_claim_holds_with_a_positive_margin():
    results = tables.evaluate(DOC["tables"])
    assert {key for key, *_ in results} == set(DOC["tables"])
    for key, name, margin, where, ok in results:
        assert ok and margin > 0, (key, name, margin, where)


@pytest.mark.parametrize(
    "key, path, value, claim", BREAKS,
    ids=[f"{b[0]}:{'/'.join(map(str, b[1]))}" for b in BREAKS])
def test_one_broken_cell_fails_its_claim(key, path, value, claim):
    broken = copy.deepcopy(DOC["tables"])
    *parents, last = path
    target = broken[key]
    for step in parents:
        target = target[step]
    target[last] = value(broken[key])
    failed = {(k, name) for k, name, *_, ok in tables.evaluate(broken)
              if not ok}
    assert (key, claim) in failed
    assert {k for k, _ in failed} == {key}


def test_committed_config_is_the_quick_config():
    assert DOC["config"] == json.loads(tables.dumps(tables.QUICK))
    # Tables 1-3 share the CHARMM runs: merged at P = 1 and every P,
    # multiple at every P
    procs = tables.QUICK["charmm"]["procs"]
    assert sum(k.startswith("charmm ") for k in DOC["runs"]) == \
        2 * len(procs) + 1


def test_file_is_canonical_and_holds_nothing_host_or_time_dependent():
    assert tables.dumps(DOC) == (ROOT / "BENCH_tables.json").read_text()
    assert set(DOC) == {"backend", "config", "runs", "tables"}

    def keys(obj):
        if isinstance(obj, dict):
            for k, v in obj.items():
                yield k
                yield from keys(v)
        elif isinstance(obj, list):
            for v in obj:
                yield from keys(v)

    banned = {"time", "timestamp", "wall", "host", "date", "clock",
              "seconds", "elapsed"}
    assert not [k for k in keys(DOC)
                if banned & set(re.split(r"[^a-z]+", k.lower()))]
