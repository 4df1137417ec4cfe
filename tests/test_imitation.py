"""Imitation pipeline: demonstration serialization, evaluation and scoring,
report bookkeeping, and short end-to-end runs of every training loop."""

import copy
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import ifo_lab as il
from ifo_lab import adversary, envs, imitation, nets, trpo
from ifo_lab.envs import PointMassController, TabularPolicy, value_iteration
from ifo_lab.imitation import (DemonstrationSet, DemonstrationSetWithActions,
                               TrainConfig, TrainReport, _EarlyStopper,
                               fit_inverse_model, policy_to_tabular,
                               record_demonstrations,
                               record_demonstrations_with_actions)


@pytest.fixture(scope="module")
def point_mass_demos():
    env = il.PointMass()
    expert = PointMassController(env)
    return env, expert, record_demonstrations(expert, env, 10, 1)


@pytest.fixture(scope="module")
def gridworld_demos():
    env = il.gridworld(5, 5)
    _, table = value_iteration(env.mdp, env.spec.gamma)
    expert = TabularPolicy(table)
    return env, expert, record_demonstrations(expert, env, 10, 1)


class TestDemonstrationSet:
    def test_single_trajectory(self, point_mass_demos):
        env, expert, _ = point_mass_demos
        demos = record_demonstrations(expert, env, 1, 0)
        assert demos.n_trajectories == 1

    def test_roundtrip_bit_identical(self, tmp_path, point_mass_demos):
        _, _, demos = point_mass_demos
        path = tmp_path / "demos.bin"
        demos.save(path)
        loaded = DemonstrationSet.load(path)
        assert loaded.env_id == demos.env_id
        assert loaded.recording_seed == demos.recording_seed
        assert loaded.expert_mean_return == demos.expert_mean_return
        for a, b in zip(demos.trajectories, loaded.trajectories):
            np.testing.assert_array_equal(a, b)

    def test_contains_no_action_data(self, point_mass_demos):
        _, _, demos = point_mass_demos
        assert not hasattr(demos, "actions")

    def test_recorded_return_matches_expert_evaluation(self, point_mass_demos):
        env, expert, demos = point_mass_demos
        mean, std = imitation.evaluate(expert, env, 10, 123)
        assert abs(demos.expert_mean_return - mean) <= max(std, 1.0)

    def test_subset(self, point_mass_demos):
        _, _, demos = point_mass_demos
        assert demos.subset(3).n_trajectories == 3
        with pytest.raises(ValueError):
            demos.subset(0)
        with pytest.raises(ValueError):
            demos.subset(99)

    def test_transition_pairs_are_consecutive(self, point_mass_demos):
        _, _, demos = point_mass_demos
        s, s_next = demos.transition_pairs()
        assert np.shares_memory(s, demos.trajectories)
        assert np.shares_memory(s_next, demos.trajectories)
        s, s_next = s.reshape(-1, demos.state_dim), s_next.reshape(-1, demos.state_dim)
        assert len(s) == len(s_next) == sum(len(tr) - 1 for tr in demos.trajectories)
        np.testing.assert_array_equal(s[1], demos.trajectories[0][1])
        np.testing.assert_array_equal(s_next[0], demos.trajectories[0][1])

    @pytest.mark.parametrize("with_actions", [False, True])
    def test_recorders_keep_the_rollout_buffers(self, monkeypatch, point_mass_demos,
                                                with_actions):
        env, expert, _ = point_mass_demos
        rollout, records = imitation.rollout, []

        def recorded_rollout(*args, **kwargs):
            records.append(rollout(*args, **kwargs))
            return records[-1]

        monkeypatch.setattr(imitation, "rollout", recorded_rollout)
        recorder = record_demonstrations_with_actions if with_actions else record_demonstrations
        demos = recorder(expert, env, 3, 0)
        assert demos.trajectories is records[0].states
        assert demos.trajectories.shape == (3, env.spec.horizon + 1, env.spec.obs_dim)
        if with_actions:
            assert demos.actions is records[0].actions

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTDEMO!" + b"\0" * 64)
        with pytest.raises(ValueError):
            DemonstrationSet.load(path)


class TestDemonstrationSetWithActions:
    def test_roundtrip_box_actions(self, tmp_path, point_mass_demos):
        env, expert, _ = point_mass_demos
        demos = record_demonstrations_with_actions(expert, env, 3, 0)
        path = tmp_path / "demos_a.bin"
        demos.save(path)
        loaded = DemonstrationSetWithActions.load(path)
        assert loaded.action_kind == "box"
        for a, b in zip(demos.actions, loaded.actions):
            np.testing.assert_array_equal(np.asarray(a, float), b)

    def test_roundtrip_discrete_actions(self, tmp_path, gridworld_demos):
        env, expert, _ = gridworld_demos
        demos = record_demonstrations_with_actions(expert, env, 2, 0)
        path = tmp_path / "demos_d.bin"
        demos.save(path)
        loaded = DemonstrationSetWithActions.load(path)
        assert loaded.action_kind == "discrete"
        for a, b in zip(demos.actions, loaded.actions):
            np.testing.assert_array_equal(np.asarray(a, int), b)

    def test_formats_not_interchangeable(self, tmp_path, point_mass_demos):
        env, expert, _ = point_mass_demos
        demos = record_demonstrations_with_actions(expert, env, 1, 0)
        path = tmp_path / "demos_a.bin"
        demos.save(path)
        with pytest.raises(ValueError):
            DemonstrationSet.load(path)


@st.composite
def demo_files(draw):
    """A random demonstration set of either format (arbitrary float bits,
    zero-step trajectories included), one state count for all of its
    trajectories."""
    state_dim = draw(st.integers(1, 3))
    n_traj, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    trajectories = draw(hnp.arrays(np.float64, (n_traj, n, state_dim)))
    fields = dict(env_id=draw(st.text(max_size=8)), state_dim=state_dim,
                  trajectories=trajectories,
                  recording_seed=draw(st.integers(-2**63, 2**63 - 1)),
                  expert_mean_return=draw(st.floats()))
    if draw(st.booleans()):
        return DemonstrationSet(**fields)
    if draw(st.booleans()):
        actions = draw(hnp.arrays(np.int64, (n_traj, n - 1)))
        return DemonstrationSetWithActions(action_kind="discrete", action_dim=1,
                                           actions=actions, **fields)
    action_dim = draw(st.integers(1, 2))
    actions = draw(hnp.arrays(np.float64, (n_traj, n - 1, action_dim)))
    return DemonstrationSetWithActions(action_kind="box", action_dim=action_dim,
                                       actions=actions, **fields)


def _bits(x):
    return np.asarray(x).tobytes()


class TestDemoFileFormats:
    @settings(max_examples=40, deadline=None)
    @given(demo_files())
    def test_roundtrip_is_bit_identical(self, tmp_path_factory, demos):
        path = tmp_path_factory.mktemp("demos") / "d.bin"
        demos.save(path)
        loaded = type(demos).load(path)
        assert loaded.env_id == demos.env_id
        assert loaded.state_dim == demos.state_dim
        assert loaded.recording_seed == demos.recording_seed
        assert _bits(loaded.expert_mean_return) == _bits(demos.expert_mean_return)
        assert [_bits(tr) for tr in loaded.trajectories] == [_bits(tr) for tr in demos.trajectories]
        assert [tr.shape for tr in loaded.trajectories] == [tr.shape for tr in demos.trajectories]
        if isinstance(demos, DemonstrationSetWithActions):
            assert (loaded.action_kind, loaded.action_dim) == (demos.action_kind, demos.action_dim)
            assert [(_bits(a), a.shape) for a in loaded.actions] == \
                [(_bits(a), a.shape) for a in demos.actions]

    @settings(max_examples=40, deadline=None)
    @given(demo_files(), st.data())
    def test_truncation_names_file_and_field(self, tmp_path_factory, demos, data):
        path = tmp_path_factory.mktemp("demos") / "d.bin"
        demos.save(path)
        raw = path.read_bytes()
        path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
        with pytest.raises(ValueError) as err:
            type(demos).load(path)
        assert str(path) in str(err.value)

    @settings(max_examples=20, deadline=None)
    @given(demo_files(), st.binary(min_size=1, max_size=16))
    def test_trailing_bytes_rejected(self, tmp_path_factory, demos, extra):
        path = tmp_path_factory.mktemp("demos") / "d.bin"
        demos.save(path)
        path.write_bytes(path.read_bytes() + extra)
        with pytest.raises(ValueError, match="trailing bytes") as err:
            type(demos).load(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("with_actions", [False, True])
    def test_truncated_field_is_named(self, tmp_path, with_actions):
        states = np.stack([np.zeros((3, 2)), np.ones((3, 2))])
        fields = dict(env_id="grid", state_dim=2, trajectories=states,
                      recording_seed=1, expert_mean_return=0.5)
        if with_actions:
            demos = DemonstrationSetWithActions(
                action_kind="box", action_dim=1,
                actions=np.stack([np.zeros((2, 1)), np.ones((2, 1))]), **fields)
            header = 8 + 37
        else:
            demos = DemonstrationSet(**fields)
            header = 8 + 32
        path = tmp_path / "d.bin"
        demos.save(path)
        raw = path.read_bytes()
        cuts = {header - 1: "header", header + 3: "env id",
                header + 4 + 2: "trajectory 0 states",
                len(raw) - 1: "trajectory 1 actions" if with_actions else "trajectory 1 states"}
        for cut, field in cuts.items():
            path.write_bytes(raw[:cut])
            with pytest.raises(ValueError, match=field):
                type(demos).load(path)

    def test_empty_trajectory_rejected(self, tmp_path):
        demos = DemonstrationSet("grid", 2, [np.zeros((0, 2))], 1, 0.5)
        path = tmp_path / "d.bin"
        demos.save(path)
        with pytest.raises(ValueError, match="trajectory 0 states"):
            DemonstrationSet.load(path)

    @staticmethod
    def _written(path, with_actions, trajectories, actions):
        """A file of either format holding the given per-trajectory arrays,
        as any writer of the format could lay it out."""
        fields = dict(env_id="grid", state_dim=2, trajectories=trajectories,
                      recording_seed=1, expert_mean_return=0.5)
        demos = (DemonstrationSetWithActions(action_kind="discrete", action_dim=1,
                                             actions=actions, **fields)
                 if with_actions else DemonstrationSet(**fields))
        demos.save(path)
        return type(demos)

    @pytest.mark.parametrize("with_actions", [False, True])
    def test_unequal_state_counts_rejected(self, tmp_path, with_actions):
        path = tmp_path / "d.bin"
        kind = self._written(path, with_actions,
                             [np.zeros((3, 2)), np.ones((2, 2)), np.ones((3, 2))],
                             [np.zeros(2, int), np.ones(1, int), np.ones(2, int)])
        with pytest.raises(ValueError, match="trajectory 1 states: 2 states, trajectory 0 has 3") \
                as err:
            kind.load(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("with_actions", [False, True])
    def test_zero_trajectories_rejected(self, tmp_path, with_actions):
        path = tmp_path / "d.bin"
        kind = self._written(path, with_actions, np.zeros((0, 3, 2)), np.zeros((0, 2), int))
        with pytest.raises(ValueError, match="header: no trajectories") as err:
            kind.load(path)
        assert str(path) in str(err.value)


class TestEvaluate:
    def test_deterministic_pair_gives_zero_std(self, gridworld_demos):
        env, expert, _ = gridworld_demos
        mean, std = imitation.evaluate(expert, env, 5, 0)
        assert std == 0.0
        assert mean == pytest.approx(32.0)

    def test_single_episode_equals_rollout_return(self, gridworld_demos):
        env, expert, _ = gridworld_demos
        mean, std = imitation.evaluate(expert, env, 1, 77)
        episodes = envs.rollout(expert, env, 1, 77, deterministic=True)
        assert mean == pytest.approx(episodes.rewards.sum())
        assert std == 0.0

    def test_rejects_zero_episodes(self, gridworld_demos):
        env, expert, _ = gridworld_demos
        with pytest.raises(ValueError):
            imitation.evaluate(expert, env, 0, 0)


class TestScaledScore:
    def test_anchors(self):
        assert imitation.scaled_score(10.0, 0.0, 10.0) == 1.0
        assert imitation.scaled_score(0.0, 0.0, 10.0) == 0.0
        assert imitation.scaled_score(5.0, 0.0, 10.0) == 0.5

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            imitation.scaled_score(1.0, 3.0, 3.0)


class TestTrainReport:
    def test_monotone_iteration_enforced(self):
        report = TrainReport("x", 0)
        report.add_row(iteration=0, mean_return=1.0)
        with pytest.raises(ValueError):
            report.add_row(iteration=0, mean_return=2.0)

    def test_csv_roundtrip(self, tmp_path):
        import csv

        report = TrainReport("x", 0)
        report.add_row(iteration=0, mean_return=1.5, kl=0.01, accepted=True)
        report.add_row(iteration=1, mean_return=2.5, kl=0.02, accepted=True)
        path = tmp_path / "progress.csv"
        report.to_csv(path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert float(rows[1]["mean_return"]) == 2.5

    def test_summary_fields(self, tmp_path):
        import json

        report = TrainReport("gaifo", 3)
        report.scaled_score = 0.9
        report.wall_clock = 1.0
        path = tmp_path / "summary.json"
        report.save_summary(path)
        with open(path) as fh:
            summary = json.load(fh)
        assert summary["algorithm"] == "gaifo"
        assert summary["seed"] == 3
        assert summary["scaled_score"] == 0.9


class TestEarlyStopper:
    def test_stops_after_three_stalled_windows(self):
        stopper = _EarlyStopper(window_evals=2)
        flags = [stopper.update(10.0) for _ in range(8)]
        assert flags[-1] is True
        assert not any(flags[:4])

    def test_keeps_going_while_improving(self):
        stopper = _EarlyStopper(window_evals=2)
        assert not any(stopper.update(float(v)) for v in range(20))


class TestPolicyToTabular:
    def test_rows_are_distributions(self):
        env = il.gridworld(3, 3)
        policy = trpo.make_policy(env.spec, hidden=(16,), seed=0)
        table = policy_to_tabular(policy, 9)
        assert table.shape == (9, 4)
        np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(table >= 0)


class TestTrainExpert:
    def test_zero_iterations_returns_init_policy(self):
        env = il.gridworld(3, 3)
        cfg = TrainConfig(batch_size=64, hidden=(8,))
        policy, report = il.train_expert(env, cfg, 0, seed=5)
        reference = trpo.make_policy(env.spec, hidden=(8,), seed=5)
        np.testing.assert_array_equal(policy.flat_params(),
                                      reference.flat_params())
        assert report.rows == []

    def test_short_run_improves(self):
        env = il.gridworld(3, 3, horizon=20)
        cfg = TrainConfig(batch_size=512, hidden=(32, 32), eval_every=10,
                          early_stop=False)
        policy, report = il.train_expert(env, cfg, 30, seed=0)
        first = report.rows[0]["mean_return"]
        assert report.final_return > first
        assert report.final_return > 10.0


class TestGaifoTrain:
    def test_env_id_mismatch_rejected(self, point_mass_demos):
        _, _, demos = point_mass_demos
        other = il.gridworld(3, 3)
        with pytest.raises(ValueError):
            il.gaifo_train(other, demos, TrainConfig(iterations=1), 0)

    def test_state_dim_mismatch_rejected(self, point_mass_demos):
        _, _, demos = point_mass_demos
        with pytest.raises(ValueError, match="demo state dim 4 != env obs dim 6"):
            il.gaifo_train(il.PointMass(dim=3), demos, TrainConfig(iterations=1), 0)

    def test_rejects_action_bearing_demos(self, point_mass_demos):
        env, expert, _ = point_mass_demos
        demos_a = record_demonstrations_with_actions(expert, env, 1, 0)
        with pytest.raises(TypeError):
            il.gaifo_train(env, demos_a, TrainConfig(iterations=1), 0)

    def test_report_shape_and_determinism(self, gridworld_demos):
        env, _, demos = gridworld_demos
        cfg = TrainConfig(iterations=3, batch_size=128, hidden=(16,),
                          eval_every=2, early_stop=False)
        _, rep_a = il.gaifo_train(env, demos, cfg, 7)
        _, rep_b = il.gaifo_train(env, demos, cfg, 7)
        assert [r["iteration"] for r in rep_a.rows] == [0, 1, 2]
        assert rep_a.rows == rep_b.rows
        assert rep_a.scaled_score == rep_b.scaled_score
        for row in rep_a.rows:
            assert row["disc_loss"] >= 0.0
            assert row["occupancy_distance"] != ""

    def test_zero_iterations_scores_near_zero(self, point_mass_demos):
        env, _, demos = point_mass_demos
        cfg = TrainConfig(iterations=0, track_occupancy=False)
        policy, report = il.gaifo_train(env, demos, cfg, 0)
        # small-output init keeps the point mass nearly still, which beats
        # the uniform-random anchor; "near zero" here means far from expert
        assert report.scaled_score < 0.9


def _overflow_output(net):
    """Finite parameters whose forward overflows: saturated tanh hidden units
    times output weights of 1.7e308."""
    net.biases[0][:] = 100.0
    net.weights[-1][:] = 1.7e308


def _poison_iteration_2(monkeypatch, point):
    """Make the third iteration of a trainer meet a non-finite value at
    `point`. Returns the policy parameters seen at the start of each
    iteration; the last of them is the snapshot an abort must return."""
    seen = []
    collect = imitation.collect_batch

    def collect_batch(policy, env, min_steps, seed):
        seen.append(policy.flat_params().copy())
        if point == "rollout" and len(seen) == 3:
            policy.net.weights[0][0, 0] = np.nan
        return collect(policy, env, min_steps, seed)

    monkeypatch.setattr(imitation, "collect_batch", collect_batch)
    if point == "value net":
        fit = trpo.ValueFunction.fit

        def fit_then_poison(self, states, targets):
            fit(self, states, targets)
            if len(seen) == 2:
                self.net.weights[0][0, 0] = np.nan

        monkeypatch.setattr(trpo.ValueFunction, "fit", fit_then_poison)
    if point == "value gradient":
        fit = trpo.ValueFunction.fit
        backward = nets.mlp_backward

        def nan_backward(params, cache, output_grad):
            return backward(params, cache, output_grad) * np.nan

        def fit_with_nan_gradient(self, states, targets):
            if len(seen) == 3:
                monkeypatch.setattr(nets, "mlp_backward", nan_backward)
            fit(self, states, targets)

        monkeypatch.setattr(trpo.ValueFunction, "fit", fit_with_nan_gradient)
    if point == "discriminator gradient":
        loss_grad = adversary.disc_loss_grad

        def nan_loss_grad(d, imitator_batch, expert_batch, *counts):
            loss, grads = loss_grad(d, imitator_batch, expert_batch, *counts)
            return loss, grads * np.nan if len(seen) == 3 else grads

        monkeypatch.setattr(adversary, "disc_loss_grad", nan_loss_grad)
    if point == "overflowing forward":
        update = trpo.trpo_update

        def update_then_overflow(policy, value_fn, batch, *args, **kwargs):
            diag = update(policy, value_fn, batch, *args, **kwargs)
            if len(seen) == 3:
                _overflow_output(policy.net)
            return diag

        monkeypatch.setattr(trpo, "trpo_update", update_then_overflow)
    if point == "fisher product":
        jvp = nets.mlp_jvp

        def poisoned_jvp(params, cache, tangent):
            out = jvp(params, cache, tangent)
            return out * np.nan if len(seen) == 3 else out

        monkeypatch.setattr(nets, "mlp_jvp", poisoned_jvp)
    return seen


class TestNonFiniteAbort:
    """A non-finite value in the rollout, a gradient, the value net, the
    TRPO step or the iteration's occupancy tracking or evaluation ends the
    run as aborted with the last finite policy, not with an exception. An
    overflowing forward is met by the evaluation of train_expert and by the
    occupancy tracking of gaifo_train, each evaluating every iteration."""

    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
    @pytest.mark.parametrize("trainer,point", [
        (trainer, point) for trainer in ("expert", "gaifo")
        for point in ("rollout", "value net", "value gradient", "fisher product",
                      "discriminator gradient", "overflowing forward")
        if (trainer, point) != ("expert", "discriminator gradient")])
    def test_aborts_with_last_finite_snapshot(self, monkeypatch, gridworld_demos,
                                              trainer, point):
        env, _, demos = gridworld_demos
        cfg = TrainConfig(iterations=5, batch_size=128, hidden=(16,),
                          eval_every=1 if point == "overflowing forward" else 2,
                          early_stop=False)
        seen = _poison_iteration_2(monkeypatch, point)
        if trainer == "expert":
            policy, report = il.train_expert(env, cfg, cfg.iterations, seed=3)
        else:
            policy, report = il.gaifo_train(env, demos, cfg, 3)
        assert report.aborted
        assert len(seen) == 3 and len(report.rows) == 2
        np.testing.assert_array_equal(policy.flat_params(), seen[-1])
        assert np.all(np.isfinite(policy.flat_params()))
        assert np.isfinite(report.final_return)


class NanAtStep:
    """A policy's actions, except NaN for the first episode at step `step`."""

    def __init__(self, policy, step):
        self.policy, self.step = policy, step

    def act(self, obs, keys, t, deterministic=False):
        a = np.array(self.policy.act(obs, keys, t, deterministic), dtype=np.float64)
        if t == self.step:
            a[0] = np.nan
        return a


class TestCollectBatch:
    @pytest.mark.parametrize("min_steps", [1, 40, 41, 95])
    def test_one_rollout_of_whole_episodes(self, min_steps):
        env = il.gridworld(3, 3, slip_prob=0.2, horizon=20)
        policy = envs.RandomPolicy(env.spec)
        got = imitation.collect_batch(policy, env, min_steps, 5)
        want = envs.rollout(policy, env, math.ceil(min_steps / 20), 5)
        assert got.rewards.shape == (math.ceil(min_steps / 20), 20)
        for g, w in [(got.states, want.states), (got.actions, want.actions),
                     (got.rewards, want.rewards), (got.keys, want.keys)]:
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("call", [imitation.collect_batch, imitation.evaluate,
                                      record_demonstrations,
                                      record_demonstrations_with_actions],
                             ids=lambda f: f.__name__)
    def test_aborted_episode_raises(self, call):
        """An episode cut short by a non-finite action raises: it is not
        averaged into a return, saved as a short demonstration or silently
        dropped from a batch."""
        env = il.PointMass(horizon=20)
        expert = PointMassController(env)
        call(expert, env, 30, 0)
        with pytest.raises(FloatingPointError, match="non-finite action"):
            call(NanAtStep(expert, 7), env, 30, 0)

    def test_aborting_top_up_raises(self, monkeypatch):
        """A policy that aborts every episode raises FloatingPointError, which
        the trainers report as aborted, from one rollout call: nothing tops
        the batch up. The cap on rollout calls turns a loop that never ends
        into a failure."""
        rollout, calls = imitation.rollout, []

        def capped_rollout(*args, **kwargs):
            calls.append(args)
            if len(calls) > 50:
                raise RuntimeError("collect_batch is still topping up")
            return rollout(*args, **kwargs)

        class NanPolicy:
            def act(self, obs, keys, t, deterministic=False):
                return np.full(len(obs), np.nan)

        monkeypatch.setattr(imitation, "rollout", capped_rollout)
        with pytest.raises(FloatingPointError):
            imitation.collect_batch(NanPolicy(), il.gridworld(3, 3, horizon=5), 20, 0)
        assert len(calls) == 1


class TestBcoNonFiniteAbort:
    """A non-finite gradient in BCO's inverse-model fit or in cloning ends
    the run as aborted with the policy as it stood, not with an exception."""

    @pytest.mark.parametrize("fit_index,point", [(0, "inverse model"), (1, "cloning")])
    def test_nan_gradient_aborts(self, monkeypatch, gridworld_demos, fit_index, point):
        env, _, demos = gridworld_demos
        cfg = TrainConfig(exploration_steps=500, inverse_epochs=2,
                          hidden=(16,), eval_episodes=3, inverse_val_threshold=1.0)
        fit, backward = nets.fit_supervised, nets.mlp_backward
        fits = []

        def nan_backward(params, cache, output_grad):
            return backward(params, cache, output_grad) * np.nan

        def fit_supervised(net, *args, **kwargs):
            if len(fits) == fit_index:
                monkeypatch.setattr(nets, "mlp_backward", nan_backward)
            fits.append(point)
            fit(net, *args, **kwargs)

        monkeypatch.setattr(nets, "fit_supervised", fit_supervised)
        policy, report = il.bco_train(env, demos, cfg, 4)
        assert report.aborted and fits[-1] == point and report.rows == []
        initial = trpo.make_policy(env.spec, hidden=cfg.hidden, seed=4)
        np.testing.assert_array_equal(policy.flat_params(), initial.flat_params())
        assert np.isfinite(report.final_return) and np.isfinite(report.scaled_score)

    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
    def test_overflowing_clone_aborts_at_final_evaluation(self, monkeypatch, gridworld_demos):
        """Cloning that leaves finite output weights of 1.7e308 makes the final
        evaluation's forward overflow: the run ends aborted with final_return
        NaN, not with an exception."""
        env, _, demos = gridworld_demos
        cfg = TrainConfig(exploration_steps=500, inverse_epochs=2,
                          hidden=(16,), eval_episodes=3, inverse_val_threshold=1.0)
        fit, fits = nets.fit_supervised, []

        def fit_supervised(net, *args, **kwargs):
            fit(net, *args, **kwargs)
            fits.append(net)
            if len(fits) == 2:
                _overflow_output(net)

        monkeypatch.setattr(nets, "fit_supervised", fit_supervised)
        policy, report = il.bco_train(env, demos, cfg, 4)
        assert len(fits) == 2 and fits[-1] is policy.net
        assert report.aborted and report.rows == []
        assert np.isnan(report.final_return) and np.isnan(report.scaled_score)
        assert np.all(np.isfinite(policy.flat_params()))


class TestTracedLookupSites:
    """perfbench/tracer.py times these functions by replacing them at their
    module or class attribute, so each must be called through it by the
    trainers; a local alias would hide the calls from the benchmark."""

    @staticmethod
    def _count_calls(monkeypatch, targets):
        calls = {}
        for owner, attr, name in targets:
            def wrapped(*args, original=getattr(owner, attr), name=name, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, wrapped)
        return calls

    def test_gaifo_reaches_the_traced_functions(self, monkeypatch, gridworld_demos):
        env, _, demos = gridworld_demos
        calls = self._count_calls(monkeypatch, [
            (adversary, "disc_update", "disc_update"),
            (adversary, "disc_values", "disc_values"),
            (trpo.ValueFunction, "fit", "ValueFunction.fit"),
            (trpo, "compute_advantages", "compute_advantages")])
        cfg = TrainConfig(iterations=1, batch_size=128, hidden=(16,), eval_episodes=2,
                          early_stop=False)
        il.gaifo_train(env, demos, cfg, 0)
        assert sorted(calls) == ["ValueFunction.fit", "compute_advantages",
                                 "disc_update", "disc_values"]

    def test_bco_reaches_the_traced_functions(self, monkeypatch, gridworld_demos):
        env, _, demos = gridworld_demos
        calls = self._count_calls(monkeypatch, [
            (imitation, "fit_inverse_model", "fit_inverse_model")])
        cfg = TrainConfig(exploration_steps=500, inverse_epochs=1,
                          hidden=(8,), eval_episodes=2, inverse_val_threshold=1.0)
        il.bco_train(env, demos, cfg, 0)
        assert calls == {"fit_inverse_model": 1}


class TestGailTrain:
    def test_needs_actions(self, point_mass_demos):
        env, _, demos = point_mass_demos
        with pytest.raises(TypeError):
            il.gail_train(env, demos, TrainConfig(iterations=1), 0)

    def test_state_and_action_mismatch_rejected(self, point_mass_demos):
        env, expert, _ = point_mass_demos
        demos_a = record_demonstrations_with_actions(expert, env, 2, 0)
        with pytest.raises(ValueError, match="demo state dim 4 != env obs dim 6"):
            il.gail_train(il.PointMass(dim=3), demos_a, TrainConfig(iterations=1), 0)
        discrete = dataclasses.replace(demos_a, action_kind="discrete", action_dim=1)
        with pytest.raises(ValueError, match=r"demo actions \('discrete', 1\) != "
                                             r"env actions \('box', 2\)"):
            il.gail_train(env, discrete, TrainConfig(iterations=1), 0)

    def test_expert_features_read_the_recording(self, monkeypatch, point_mass_demos,
                                                gridworld_demos):
        """The expert's state part is a view of the trajectories, and so is
        its action part for box actions; for discrete ones it is the one-hot
        rows of the actions. In C order both are the per-trajectory
        concatenations."""
        adversarial_reward, parts = imitation._adversarial_reward, []

        def recorded(config, seed, features, expert_parts):
            parts.append(expert_parts)
            return adversarial_reward(config, seed, features, expert_parts)

        monkeypatch.setattr(imitation, "_adversarial_reward", recorded)
        cfg = TrainConfig(iterations=0, hidden=(8,), eval_episodes=1, track_occupancy=False)
        for env, expert, _ in (point_mass_demos, gridworld_demos):
            demos = record_demonstrations_with_actions(expert, env, 3, 0)
            il.gail_train(env, demos, cfg, 0)
            s, a = parts[-1]
            assert np.shares_memory(s, demos.trajectories)
            np.testing.assert_array_equal(s.reshape(-1, demos.state_dim),
                                          np.concatenate([tr[:-1] for tr in demos.trajectories]))
            flat = np.concatenate(list(demos.actions))
            if env.spec.action_kind == "box":
                assert np.shares_memory(a, demos.actions)
                want = flat
            else:
                want = np.zeros((len(flat), env.spec.n_actions))
                want[np.arange(len(flat)), flat] = 1.0
            assert a.dtype == want.dtype
            np.testing.assert_array_equal(a.reshape(want.shape), want)

    def test_short_run_produces_report(self, point_mass_demos):
        env, expert, _ = point_mass_demos
        demos_a = record_demonstrations_with_actions(expert, env, 5, 0)
        cfg = TrainConfig(iterations=2, batch_size=256, hidden=(16,),
                          eval_every=2, early_stop=False, track_occupancy=False)
        _, report = il.gail_train(env, demos_a, cfg, 0)
        assert len(report.rows) == 2
        assert report.scaled_score is not None


class TestBcoTrain:
    def test_zero_exploration_rejected(self):
        with pytest.raises(ValueError, match="exploration_steps must be >= 1, got 0"):
            TrainConfig(exploration_steps=0)

    def test_state_dim_mismatch_rejected(self, point_mass_demos, monkeypatch):
        """Rejected before any exploration, not by a shape error after it."""
        _, _, demos = point_mass_demos
        monkeypatch.setattr(imitation, "collect_batch", None)
        with pytest.raises(ValueError, match="demo state dim 4 != env obs dim 6"):
            il.bco_train(il.PointMass(dim=3), demos, TrainConfig(iterations=1), 0)

    def test_inverse_model_recovers_point_mass_actions(self, point_mass_demos):
        # point-mass dynamics are affine in the action, so the inverse model
        # should recover demo actions to a few percent RMS
        env, expert, demos = point_mass_demos
        cfg = TrainConfig(exploration_steps=20_000, inverse_epochs=20)
        batch = trpo.RolloutBatch.of(envs.rollout(envs.RandomPolicy(env.spec), env, 100, 11))
        predict, val = fit_inverse_model(
            batch.states, batch.actions, batch.next_states, env.spec, cfg, 13)
        assert val < 0.1
        demos_a = record_demonstrations_with_actions(expert, env, 10, 1)
        s = np.concatenate([tr[:-1] for tr in demos_a.trajectories])
        s_next = np.concatenate([tr[1:] for tr in demos_a.trajectories])
        true_actions = np.concatenate(demos_a.actions)
        pred = predict(s, s_next)
        rms_err = np.sqrt(np.mean((pred - true_actions) ** 2))
        rms_true = np.sqrt(np.mean(true_actions**2))
        assert rms_err <= 0.1 * rms_true

    @pytest.fixture(scope="class")
    def gridworld_exploration(self):
        """The benchmark's exploration set: 50,000 random-policy steps on the
        5x5 gridworld."""
        env = il.gridworld(5, 5, horizon=50)
        episodes = imitation.collect_batch(envs.RandomPolicy(env.spec), env, 50_000, 11)
        return env, trpo.RolloutBatch.of(episodes)

    def test_validation_over_distinct_rows_is_the_per_row_metric(self, gridworld_exploration):
        env, batch = gridworld_exploration
        s, a, s_next = batch.states, batch.actions, batch.next_states
        predict, val = fit_inverse_model(s, a, s_next, env.spec,
                                         TrainConfig(inverse_epochs=1), 13)
        s, s_next = s.reshape(len(a), -1), s_next.reshape(len(a), -1)
        # the held-out rows are the first tenth of the seed's permutation
        val_idx = np.random.default_rng(13).permutation(len(s))[: len(s) // 10]
        assert val == float(np.mean(predict(s[val_idx], s_next[val_idx]) != a[val_idx]))

    def test_fit_never_holds_the_joined_rows(self, gridworld_exploration):
        # the joined (50,000, 50) array of (s, s') rows set the traced peak at
        # 19.5 MB, and the 5,000-row validation forward held about 10 MB later
        env, batch = gridworld_exploration
        tracemalloc.start()
        try:
            fit_inverse_model(batch.states, batch.actions, batch.next_states, env.spec,
                              TrainConfig(inverse_epochs=1), 13)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    def test_holds_the_exploration_states_once(self):
        """bco_train keeps one copy of its exploration states, the rollout's
        (1000, 51, 25) buffer: the batch and the inverse model's coding read
        it through views. Flat states and next_states copied from it put the
        traced peak at 3.2 times the buffer."""
        env = il.gridworld(5, 5, horizon=50)
        _, table = value_iteration(env.mdp, env.spec.gamma)
        demos = record_demonstrations(TabularPolicy(table), env, 10, 1)
        cfg = TrainConfig(exploration_steps=50_000)
        n_episodes = cfg.exploration_steps // env.spec.horizon
        buffer = n_episodes * (env.spec.horizon + 1) * env.spec.obs_dim * 8
        tracemalloc.start()
        try:
            il.bco_train(env, demos, cfg, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * buffer

    def test_batch_reads_the_rollout_buffers(self):
        """RolloutBatch.of keeps the rollout's buffers as views, and its rows
        are the episodes' transitions in order."""
        env = il.gridworld(3, 3, slip_prob=0.2, horizon=6)
        episodes = imitation.collect_batch(envs.RandomPolicy(env.spec), env, 30, 2)
        batch = trpo.RolloutBatch.of(episodes)
        assert np.shares_memory(batch.states, episodes.states)
        assert np.shares_memory(batch.next_states, episodes.states)
        assert np.shares_memory(batch.actions, episodes.actions)
        assert np.shares_memory(batch.rewards, episodes.rewards)
        d = env.spec.obs_dim
        for got, want in [
                (batch.states.reshape(-1, d), np.concatenate([tr.states[:-1] for tr in episodes])),
                (batch.next_states.reshape(-1, d),
                 np.concatenate([tr.states[1:] for tr in episodes])),
                (batch.actions, np.concatenate([tr.actions for tr in episodes])),
                (batch.rewards, np.concatenate([tr.rewards for tr in episodes]))]:
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_poor_inverse_fit_warns_but_continues(self, point_mass_demos):
        env, _, demos = point_mass_demos
        cfg = TrainConfig(exploration_steps=500, inverse_epochs=1,
                          hidden=(8,), eval_episodes=2, inverse_val_threshold=1e-6)
        with pytest.warns(UserWarning, match="inverse model"):
            policy, report = il.bco_train(env, demos, cfg, 0)
        assert report.scaled_score is not None

    def test_full_bco_on_gridworld(self, gridworld_demos):
        env, _, demos = gridworld_demos
        cfg = TrainConfig(exploration_steps=8_000, inverse_epochs=10,
                          hidden=(64, 64), eval_episodes=5)
        policy, report = il.bco_train(env, demos, cfg, 0)
        assert report.extras["inverse_val_metric"] < 0.2
        # deterministic expert on a deterministic gridworld is cloneable
        assert report.scaled_score > 0.8
