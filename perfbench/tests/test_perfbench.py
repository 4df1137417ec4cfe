"""Fast tests of the benchmark itself: tiny budgets of every workload, the
output checks, failure counting and span attribution.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import ifo_lab as il
import metrics
import run
import workloads
from tracer import SETUP_ROOT, Tracer, check_trace, self_times, summarize, trace_targets

from conftest import BENCH

TINY = {
    "pointmass-gaifo": {"iterations": 2, "batch_size": 400},
    "gridworld-gaifo": {"iterations": 2, "batch_size": 100},
    "gridworld-bco": {"exploration_steps": 5000},
}
TRACE_ONLY = {"trace.train_s", "trace.untraced_train_s", "trace.overhead_share",
              "trace.spans"}


def _traced(workload, tmp_path, targets=None):
    tracer = Tracer("test")
    with tracer.installed(il, targets):
        result = workloads.run_once(workload, 0, tmp_path, tracer, TINY[workload.name])
    roots = {name: i for i, (name, parent, *_) in enumerate(tracer.spans) if parent < 0}
    return result, tracer.spans, roots


def test_benchmark_json_declares_the_metrics_and_workloads():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == metrics.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    units = [m["unit"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", u) for u in units)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_budget_traced_run_is_complete_and_transparent(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    plain = workloads.run_once(workload, 0, tmp_path, overrides=TINY[name])
    result, spans, roots = _traced(workload, tmp_path)
    trainer = roots[f"imitation.{workload.trainer}"]

    # two iterations cannot halve the occupancy distance: the rule fires
    assert [("not halved" in p) for p in result["problems"]] \
        == ([True] if workload.halving_check else [])
    assert result["policy_sha256"] == plain["policy_sha256"]
    assert re.fullmatch(r"[0-9a-f]{64}", result["policy_sha256"])
    assert check_trace(spans, trainer, result["train_s"],
                       workload.expected_spans, 0.01) == []
    figures = metrics.layer_figures(spans, trainer, roots[SETUP_ROOT])
    assert set(figures) | TRACE_ONLY == {n for n, _, _ in metrics.PER_LAYER}
    assert figures["imitation.record_demonstrations.s"] > 0
    if workload.trainer == "gaifo_train":
        assert figures["trpo.FvpOperator.calls"] > 0
        assert figures["nets.mlp_forward.b1.calls"] > 0
        assert 0 <= figures["trpo.accepted_share"] <= 1
    else:
        assert figures["trpo.FvpOperator.calls"] == 0
        assert figures["envs.step.calls"] >= 5000
        assert figures["imitation.fit_inverse_model.s"] > 0


def test_wrapper_at_the_wrong_lookup_site_fails_the_trace(tmp_path):
    # imitation binds rollout at import: wrapping only envs.rollout records nothing
    workload = workloads.WORKLOADS["gridworld-gaifo"]
    targets = [t for t in trace_targets(il)
               if not (t[0] is il.imitation and t[1] == "rollout")]
    result, spans, roots = _traced(workload, tmp_path, targets)
    problems = check_trace(spans, roots["imitation.gaifo_train"], result["train_s"],
                           workload.expected_spans, 0.01)
    assert problems == ["span envs.rollout recorded no call"]
    assert il.imitation.rollout is il.envs.rollout    # wrappers were removed


def test_self_times_and_layer_totals_on_a_known_tree():
    spans = [
        ["imitation.gaifo_train", -1, 0.0, 10.0, None],
        ["imitation.collect_batch", 0, 1.0, 6.0, None],
        ["envs.rollout", 1, 1.5, 5.5, (4, 1)],
        ["trpo.StochasticPolicy.act", 2, 2.0, 3.0, None],
        ["nets.mlp_forward", 3, 2.25, 2.75, (1, 10)],
        ["envs.step", 2, 3.0, 4.0, None],
        ["nets.mlp_forward", 0, 7.0, 9.0, (100, 10)],
        [SETUP_ROOT, -1, -2.0, -1.0, None],
    ]
    own, roots = self_times(spans)
    assert own == [3.0, 1.0, 2.0, 0.5, 0.5, 1.0, 2.0, 1.0]
    assert roots == [0, 0, 0, 0, 0, 0, 0, 7]
    names, layers = summarize(spans, 0)
    assert names["nets.mlp_forward"]["calls"] == 2
    assert names["nets.mlp_forward"]["b1_calls"] == 1
    assert layers["envs"] == {"total_s": 4.0, "self_s": 3.0}
    assert layers["nets"] == {"total_s": 2.5, "self_s": 2.5}
    assert layers["imitation"] == {"total_s": 10.0, "self_s": 4.0}
    figures = metrics.layer_figures(spans, 0, 7)
    assert figures["envs.rollout.episodes"] == 4
    assert figures["envs.rollout.aborted_episodes"] == 1
    assert figures["nets.mlp_forward.b1.us_per_call"] == pytest.approx(0.5e6)
    assert figures["nets.mlp_forward.batch.rows"] == 100
    assert figures["nets.gflops_per_s.batch"] == pytest.approx(2 * 100 * 10 / 2.0 * 1e-9)
    assert figures["imitation.self_s"] == 3.0

    assert check_trace(spans, 0, 10.0, ("envs.step",), 0.01) == []
    assert check_trace(spans, 0, 10.0, ("trpo.FvpOperator",), 0.01) == [
        "span trpo.FvpOperator recorded no call"]
    assert "against a traced train_s" in check_trace(spans, 0, 12.0, (), 0.01)[0]
    nested = spans[:6] + [["envs.step", 5, 3.1, 3.9, None]]
    assert check_trace(nested, 0, 10.0, (), 0.01) == ["span envs.step nests in itself"]


def _report(workload, rows, last_distance=0.1, **fields):
    report = il.imitation.TrainReport(workload.trainer, 0)
    for it in range(rows):
        report.add_row(iteration=it,
                       occupancy_distance=last_distance if it == rows - 1 else 1.0)
    report.scaled_score = 0.5
    report.extras["inverse_val_metric"] = 0.1
    for key, value in fields.items():
        setattr(report, key, value)
    return report


def test_output_checks_name_each_failure():
    gg = workloads.WORKLOADS["gridworld-gaifo"]
    bco = workloads.WORKLOADS["gridworld-bco"]
    config = il.TrainConfig(iterations=4)
    policy = il.trpo.make_policy(il.gridworld(5, 5).spec)
    assert workloads.check_outputs(gg, config, policy, _report(gg, 4)) == []
    assert workloads.check_outputs(gg, config, policy, _report(gg, 4, aborted=True)) \
        == ["report.aborted is set"]
    assert workloads.check_outputs(gg, config, policy, _report(gg, 3)) \
        == ["completed 3 of 4 iterations"]
    assert "not finite" in workloads.check_outputs(
        gg, config, policy, _report(gg, 4, scaled_score=float("nan")))[0]
    assert workloads.check_outputs(
        gg, config, policy, _report(gg, 4, last_distance=0.6)) == [
        "occupancy distance went from 1.0000 to 0.6000, not halved"]
    bad = policy.copy()
    bad.set_flat(np.full(policy.n_params, np.nan))
    assert workloads.check_outputs(gg, config, bad, _report(gg, 4)) \
        == ["final policy parameters are not finite"]
    poor = _report(bco, 1)
    poor.extras["inverse_val_metric"] = 0.9
    assert "inverse model" in workloads.check_outputs(bco, config, policy, poor)[0]
    assert workloads.check_outputs(bco, config, policy, _report(bco, 1)) == []


def test_a_raising_trainer_is_recorded_not_raised(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise FloatingPointError("non-finite values in forward pass output")

    monkeypatch.setattr(il.imitation, "bco_train", broken)
    result = workloads.run_once(workloads.WORKLOADS["gridworld-bco"], 0, tmp_path,
                                overrides=TINY["gridworld-bco"])
    assert len(result["problems"]) == 1
    assert "trainer raised" in result["problems"][0]
    assert "FloatingPointError" in result["problems"][0]


def _record(train_s, problems=(), digest="d1", traced=False):
    return {"setup_s": 0.1, "train_s": train_s, "peak_rss_mb": 50.0,
            "problems": list(problems), "policy_sha256": digest, "traced": traced,
            "platform": {}}


def test_summary_counts_failures_and_compares_digests():
    warmup = _record(9.0)
    result, _ = run.summarize_runs("gridworld-bco", 0, False, warmup,
                                   [_record(3.0), _record(1.0), _record(2.0)])
    assert result["correct"] and (result["attempted"], result["failed"]) == (4, 0)
    assert result["metrics"]["train_s"] == {"value": 2.0, "unit": "s"}
    assert set(result["metrics"]) == {name for name, _, _ in metrics.END_TO_END}

    result, lines = run.summarize_runs("gridworld-bco", 0, False, warmup,
                                       [_record(3.0), _record(1.0, ["aborted"])])
    assert not result["correct"] and (result["attempted"], result["failed"]) == (3, 1)
    assert result["metrics"]["train_s"]["value"] == 3.0
    assert any("failed_share 1/3" in line for line in lines)

    result, _ = run.summarize_runs("gridworld-bco", 0, False, warmup,
                                   [_record(3.0), _record(3.0, digest="d2")])
    assert not result["correct"] and result["failed"] == 0


def test_traced_summary_gives_every_per_layer_metric_and_the_overhead():
    layers = {name: 1.0 for name, _, _ in metrics.PER_LAYER
              if name not in TRACE_ONLY or name == "trace.spans"}
    traced = dict(_record(2.5, traced=True), layers=layers)
    result, _ = run.summarize_runs("gridworld-bco", 0, True, _record(9.0),
                                   [_record(2.0), traced, _record(2.0), traced])
    assert result["correct"]
    assert list(result["metrics"]) == [name for name, _, _ in metrics.PER_LAYER]
    assert result["metrics"]["trace.overhead_share"]["value"] == pytest.approx(0.25)
    assert result["metrics"]["trace.untraced_train_s"]["value"] == 2.0


def test_run_fails_without_the_library_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "gridworld-bco", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
