"""The benchmark's workloads must run on this checkout.

``bench/run.py --trace 1`` wraps each ``(owner, attr)`` a workload's
``trace_targets()`` names by reading ``owner.__dict__[attr]``, so a
deleted or renamed function breaks that run; and every operation is
checked, so a change to a call the workloads pin, or to a count they
compare with the seed's, fails the run.  These tests only read ``bench/``.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from dessins import cache, cli, counts, evolution, kp, oracle, series

ROOT = Path(__file__).resolve().parents[1]


def _bench_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PKG = SimpleNamespace(root=ROOT, cli=cli, cache=cache, counts=counts,
                      evolution=evolution, kp=kp, oracle=oracle, series=series)


def test_traced_attributes_exist(tmp_path):
    workloads = _bench_workloads()
    for name in workloads.WORKLOADS:
        for owner, attr, span in workloads.make(name, PKG, tmp_path, 1).trace_targets():
            assert attr in owner.__dict__, f"{name}: {span} rebinds a missing {attr}"
    assert isinstance(evolution.ConnectedSeries.__dict__["compute"], classmethod)


def test_one_operation_of_each_workload_passes_its_check(tmp_path):
    workloads = _bench_workloads()
    for name in workloads.WORKLOADS:
        workload = workloads.make(name, PKG, tmp_path, 1)
        workload.setup()
        workload.prepare()
        results = [step() for step in workload.steps()]
        assert workload.check(results) == [], name
