"""What the benchmark under perfbench/ needs of the library.

A traced benchmark run fails when a function its tracer wraps is missing,
and every run fails when a workload's set-up does, so both are checked here
without running the benchmark. perfbench/ is imported as it is, from its
own directory.
"""

import importlib
import inspect
from pathlib import Path

import pytest

import ifo_lab as il

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer"), importlib.import_module("workloads")


def test_every_trace_target_resolves(perfbench):
    tracer, _ = perfbench
    for owner, attr, name, _ in tracer.trace_targets(il):
        try:
            inspect.getattr_static(owner, attr)
        except AttributeError:
            pytest.fail(f"trace target {name} ({owner.__name__}.{attr}) is missing")


def test_every_workload_sets_up(perfbench, tmp_path):
    _, workloads = perfbench
    for workload in workloads.WORKLOADS.values():
        (env, demos, _, _), _ = workloads.setup(workload, 0, tmp_path)
        assert demos.n_trajectories == workloads.N_DEMOS
        assert demos.env_id == env.spec.env_id
