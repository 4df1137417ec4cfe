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
    called here on a real result of a tiny call. A rollout with a
    non-finite action raises, so the tracer never sees an aborted record."""
    tracer, _ = perfbench
    env = il.gridworld(3, 3, horizon=4)
    policy = trpo.make_policy(env.spec, hidden=(8,), seed=0)
    vf = trpo.ValueFunction(env.spec.obs_dim, hidden=(8,), seed=1)
    clean = (policy, env, 3, 2)
    batch = trpo.RolloutBatch.of(envs.rollout(*clean))
    trpo.compute_advantages(batch, vf, env.spec.gamma)
    diag = trpo.trpo_update(policy, vf, batch)
    results = {"envs.rollout": (clean, envs.rollout(*clean), (3, 0)),
               "trpo.trpo_update": ((policy, vf, batch), diag,
                                    (diag["backtracks_used"], diag["accepted"]))}
    checked = set()
    for _, _, name, info in tracer.trace_targets(il):
        if name in results:
            args, result, want = results[name]
            assert info(args, result) == want, name
            checked.add(name)
    assert checked == set(results)
    with pytest.raises(FloatingPointError, match="non-finite action at step 1"):
        envs.rollout(NanForFirstEpisode(env.spec), env, 3, 2)


# budgets at which both trainer calls of a workload take a few seconds at most
TINY = {"gaifo_train": {"iterations": 2, "batch_size": 256},
        "bco_train": {"exploration_steps": 2_000}}


@pytest.mark.filterwarnings("ignore:inverse model validation metric")
@pytest.mark.parametrize("name", ["pointmass-gaifo", "gridworld-gaifo", "gridworld-bco"])
def test_traced_run_matches_untraced(perfbench, tmp_path, name):
    """One tiny trainer call of the workload, traced and untraced: neither
    raises, the traced one records a call of every expected span, and both
    end at the same policy bytes."""
    tracer, workloads = perfbench
    workload = workloads.WORKLOADS[name]
    overrides = TINY[workload.trainer]
    plain = workloads.run_once(workload, 0, tmp_path, overrides=overrides)
    spans = tracer.Tracer(name)
    with spans.installed(il):
        traced = workloads.run_once(workload, 0, tmp_path, spans, overrides)
    for result in (plain, traced):
        assert not [p for p in result["problems"] if p.startswith("trainer raised")]
    roots = {span[0]: i for i, span in enumerate(spans.spans) if span[1] < 0}
    names, _ = tracer.summarize(spans.spans, roots[f"imitation.{workload.trainer}"])
    assert [s for s in workload.expected_spans if names.get(s, {}).get("calls", 0) == 0] == []
    assert traced["policy_sha256"] == plain["policy_sha256"] is not None
