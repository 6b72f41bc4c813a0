"""The records are named tuples and the value classes are small immutable
classes, so importing the package loads neither ``dataclasses`` nor the
modules only some paths use."""

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import gpdrift
from gpdrift import (
    CheckReport,
    CyclicGroup,
    DriftBound,
    DriftEstimate,
    Graph,
    GraphStats,
    IntegerGroup,
    PivotIncrementDistribution,
    SweepRow,
    TrialBatch,
    TrialMetrics,
    cycle_graph,
    drift_lower_bound,
    make_graph,
    uniform_groups,
)
from gpdrift.walk import FixedWord

SRC = Path(gpdrift.__file__).resolve().parent.parent

# A fresh interpreter: nothing the test process imported is loaded yet.
IMPORT_GUARD = """
import os, sys
sys.path.insert(0, sys.argv[1])
DEFERRED = ("dataclasses", "inspect", "pickle", "signal", "decimal", "fractions")
for name in ("gpdrift", "gpdrift.cli"):
    before = set(sys.modules)
    __import__(name)
    loaded = sorted(set(sys.modules) - before)
    assert not set(loaded) & set(DEFERRED), (name, loaded)

import gpdrift, gpdrift.experiments as experiments
g = gpdrift.cycle_graph(17)
batch = gpdrift.TrialBatch(g, gpdrift.uniform_groups(17), gpdrift.FixedWord(((0, 1),)), 10, 40, 5)
os.environ["GPDRIFT_WORKERS"] = "1"
serial = gpdrift.run_batch(batch)
assert "pickle" not in sys.modules  # one worker forks nothing
experiments._usable_cpus = lambda: 2
os.environ["GPDRIFT_WORKERS"] = "2"
assert gpdrift.run_batch(batch) == serial
assert "pickle" in sys.modules and "signal" in sys.modules
bound = gpdrift.drift_lower_bound(4, 2, 17)
assert bound.law.mean() > 0
print("ok")
"""


def test_import_loads_no_deferred_module():
    done = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_GUARD, str(SRC)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


def _metrics():
    return TrialMetrics(3, 10, (8, 9), (5, 6), (5, 5))


RECORDS = {
    "GraphStats": (
        GraphStats(17, 2, 4),
        ("vertex_count", "max_clique", "max_neighbourhood"),
    ),
    "DriftBound": (
        drift_lower_bound(4, 2, 17),
        ("kappa", "t_star", "mgf_at_t_star", "law"),
    ),
    "TrialBatch": (
        TrialBatch(cycle_graph(5), uniform_groups(5), FixedWord(((0, 1),)), 3, 2, 1),
        ("graph", "groups", "nu", "steps", "trials", "base_seed"),
    ),
    "TrialMetrics": (
        _metrics(),
        ("trial", "steps", "syllable_pair", "active_pair", "gain_pair"),
    ),
    "DriftEstimate": (DriftEstimate(1.5, None), ("mean", "stderr")),
    "CheckReport": (
        CheckReport("x", 1.0, 2.0, True),
        ("name", "statistic", "threshold", "passed", "detail"),
    ),
    "SweepRow": (
        SweepRow(17, 4, 2, None, None, None, None),
        ("d", "b", "c", "kappa", "t_star", "mean_increment", "mgf"),
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_fields_are_fixed_and_read_only(name):
    record, fields = RECORDS[name]
    assert type(record).__name__ == name
    assert type(record)._fields == fields
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_record_defaults_and_replace():
    assert CheckReport("x", 1.0, 2.0, True).detail == ""
    batch = RECORDS["TrialBatch"][0]
    longer = batch._replace(steps=4)
    assert longer.steps == 4 and batch.steps == 3
    assert longer._replace(steps=3) == batch


def test_trial_metrics_pickle_round_trip():
    m = _metrics()
    again = pickle.loads(pickle.dumps(m, pickle.HIGHEST_PROTOCOL))
    assert type(again) is TrialMetrics and again == m
    assert again.syllables == 9 and again.active_at(9) == 5 and again.gains_through(10) == 5
    assert again.pivotal_count == 6  # no gain at step 10, so time 10 is not on the stack


def test_graph_equality_and_hashing():
    a = make_graph(["a", "b", "c"], [(0, 1)])
    b = Graph(("a", "b", "c"), (frozenset({1}), frozenset({0}), frozenset()))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != make_graph(["a", "b", "c"], [(1, 2)])
    assert a != make_graph(["x", "b", "c"], [(0, 1)])
    assert a != (a.labels, a.neighbors)
    with pytest.raises(AttributeError):
        a.labels = ("x", "y", "z")
    with pytest.raises(AttributeError):
        del a.neighbors
    assert tuple(a.nonneighbors) == ((2,), (2,), (0, 1))
    assert "nonneighbors" in a.__dict__  # the cached rows are still stored
    assert a == b
    with pytest.raises(TypeError, match="^Graph takes 2 values, got 1$"):
        Graph(("a",))
    with pytest.raises(TypeError, match="^IntegerGroup takes 0 values, got 1$"):
        IntegerGroup(5)


def test_groups_equality_and_hashing():
    assert CyclicGroup(5) == CyclicGroup(5) and hash(CyclicGroup(5)) == hash(CyclicGroup(5))
    assert CyclicGroup(5) != CyclicGroup(6)
    assert CyclicGroup(2) != IntegerGroup()
    assert IntegerGroup() == IntegerGroup() and hash(IntegerGroup()) == hash(IntegerGroup())
    assert len({CyclicGroup(3), CyclicGroup(3), IntegerGroup(), IntegerGroup()}) == 2
    with pytest.raises(ValueError, match="modulus must be at least 2"):
        CyclicGroup(1)
    g = CyclicGroup(4)
    with pytest.raises(AttributeError):
        g.modulus = 5
    with pytest.raises(AttributeError):
        IntegerGroup().modulus = 5
    assert g.modulus == 4
    assert pickle.loads(pickle.dumps(g)) == g
    assert pickle.loads(pickle.dumps(IntegerGroup())) == IntegerGroup()
    assert repr(CyclicGroup(4)) == "CyclicGroup(modulus=4)"
    assert repr(IntegerGroup()) == "IntegerGroup()"


def test_law_equality_hashing_and_validation():
    law = PivotIncrementDistribution(4, 2, 17)
    assert law == PivotIncrementDistribution(4, 2, 17)
    assert hash(law) == hash(PivotIncrementDistribution(4, 2, 17))
    assert law != PivotIncrementDistribution(4, 2, 18)
    assert law != (4, 2, 17)
    assert repr(law) == "PivotIncrementDistribution(b=4, c=2, d=17)"
    with pytest.raises(AttributeError):
        law.d = 40
    with pytest.raises(ValueError, match="need c >= 1 and b >= 0"):
        PivotIncrementDistribution(1, 0, 17)
    with pytest.raises(ValueError, match=r"need d > 2b \+ c \(got b=4, c=2, d=10\)"):
        PivotIncrementDistribution(4, 2, 10)
    bound = drift_lower_bound(4, 2, 17)
    assert bound.law == law and hash(bound) == hash(drift_lower_bound(4, 2, 17))
    assert isinstance(bound, DriftBound)
    assert pickle.loads(pickle.dumps(law)) == law
