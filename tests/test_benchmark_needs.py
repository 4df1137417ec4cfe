"""What the benchmark under perfbench/ needs of the library.

A traced benchmark run fails when a function its tracer wraps is missing or
returns what the tracer cannot read, and every run fails when a workload's
set-up does, so all three are checked here without running the benchmark. perfbench/ is imported as it is, from its
own directory.
"""

import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import ifo_lab as il
from ifo_lab import envs, trpo

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


class NanForFirstEpisode:
    """Random actions, except NaN for the first episode at step 1."""

    def __init__(self, spec):
        self.random = envs.RandomPolicy(spec)

    def act(self, obs, keys, t, deterministic=False):
        a = np.array(self.random.act(obs, keys, t), dtype=np.float64)
        if t == 1:
            a[0] = np.nan
        return a


def test_info_functions_read_real_results(perfbench):
    """A traced run reads episode and aborted counts off rollout's result
    and the outcome off trpo_update's diagnostics; each info function is
    called here on a real result of a tiny call."""
    tracer, _ = perfbench
    env = il.gridworld(3, 3, horizon=4)
    policy = trpo.make_policy(env.spec, hidden=(8,), seed=0)
    vf = trpo.ValueFunction(env.spec.obs_dim, hidden=(8,), seed=1)
    batch = trpo.RolloutBatch.of(envs.rollout(policy, env, 3, 2))
    trpo.compute_advantages(batch, vf, env.spec.gamma)
    diag = trpo.trpo_update(policy, vf, batch)
    aborting = (NanForFirstEpisode(env.spec), env, 3, 2)
    results = {"envs.rollout": (aborting, envs.rollout(*aborting), (3, 1)),
               "trpo.trpo_update": ((policy, vf, batch), diag,
                                    (diag["backtracks_used"], diag["accepted"]))}
    checked = set()
    for _, _, name, info in tracer.trace_targets(il):
        if name in results:
            args, result, want = results[name]
            assert info(args, result) == want, name
            checked.add(name)
    assert checked == set(results)
