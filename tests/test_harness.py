"""Harness: INI config parsing with strict keys, the environment factory,
worker-pool bounds, sweep merging, report aggregation purity, and the CLI
surface end to end."""

import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

import ifo_lab as il
from ifo_lab import harness
from ifo_lab.envs import TabularPolicy, value_iteration
from ifo_lab.harness import ExperimentConfig, aggregate_runs, make_env, n_workers


BASE_INI = """\
[env]
name = gridworld
width = 3
height = 3
horizon = 20

[train]
iterations = 2
batch_size = 128
hidden = 16
eval_every = 2
early_stop = false
track_occupancy = false
eval_episodes = 2

[run]
seed = 1
n_demos = 3
expert_iterations = 2
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(BASE_INI)
    return path


class TestExperimentConfig:
    def test_parses_sections(self, config_file):
        config = ExperimentConfig.from_ini(config_file)
        assert config.env["name"] == "gridworld"
        assert config.env["width"] == 3
        assert config.train.iterations == 2
        assert config.train.hidden == (16,)
        assert config.train.early_stop is False
        assert config.run["seed"] == 1

    @pytest.mark.parametrize("key", ["lerning_rate", "gae_lambda", "bc_epochs"])
    def test_unknown_key_rejected(self, tmp_path, key):
        path = tmp_path / "bad.ini"
        path.write_text(f"[train]\n{key} = 3\n")
        with pytest.raises(ValueError, match=key):
            ExperimentConfig.from_ini(path)

    @pytest.mark.parametrize("value,key", [
        (value, key) for value in (0, -1)
        for key in ("eval_every", "d_steps", "eval_episodes")] + [
        (0, "batch_size"), (-3, "iterations"), (1.5, "gamma"), (0, "hidden"),
        (0, "inverse_epochs"), (0.0, "disc_lr"), (-1e-3, "disc_lr")])
    def test_train_count_below_one_rejected(self, tmp_path, key, value):
        path = tmp_path / "bad.ini"
        path.write_text(f"[train]\n{key} = {value}\n")
        with pytest.raises(ValueError, match=key):
            ExperimentConfig.from_ini(path)

    @pytest.mark.parametrize("value", [0, -2])
    def test_no_demos_rejected(self, tmp_path, value):
        path = tmp_path / "bad.ini"
        path.write_text(f"[run]\nn_demos = {value}\n")
        with pytest.raises(ValueError, match=r"\[run\] n_demos"):
            ExperimentConfig.from_ini(path)

    def test_readme_example_parses(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
        path = tmp_path / "exp.ini"
        path.write_text(block)
        config = ExperimentConfig.from_ini(path)
        assert config.run["seeds"] == [0, 1, 2, 3, 4]
        assert make_env(config.env).spec.env_id == "point_mass"

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[optimizer]\nlr = 3\n")
        with pytest.raises(ValueError, match="optimizer"):
            ExperimentConfig.from_ini(path)

    def test_type_error_names_key(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[train]\niterations = soon\n")
        with pytest.raises(ValueError, match="iterations"):
            ExperimentConfig.from_ini(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ExperimentConfig.from_ini(tmp_path / "nope.ini")

    def test_hash_stable_and_sensitive(self, config_file, tmp_path):
        a = ExperimentConfig.from_ini(config_file)
        b = ExperimentConfig.from_ini(config_file)
        assert a.config_hash() == b.config_hash()
        other = tmp_path / "other.ini"
        other.write_text(BASE_INI.replace("width = 3", "width = 4"))
        assert ExperimentConfig.from_ini(other).config_hash() != a.config_hash()

    def test_run_dir_derives_from_hash_and_seed(self, config_file):
        config = ExperimentConfig.from_ini(config_file)
        d = config.run_dir(7, root="out")
        assert d.name == f"{config.config_hash()}-7"


class TestMakeEnv:
    def test_gridworld(self):
        env = make_env({"name": "gridworld", "width": 3, "height": 2})
        assert env.spec.state_count == 6

    def test_point_mass(self):
        env = make_env({"name": "point_mass", "dim": 3})
        assert env.spec.obs_dim == 6

    def test_pendulum(self):
        env = make_env({"name": "pendulum", "max_torque": 1.5})
        assert env.spec.action_high == 1.5

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_env({"name": "mujoco"})

    @pytest.mark.parametrize("name,key,value", [
        ("gridworld", "width", 0), ("gridworld", "height", -1), ("gridworld", "horizon", 0),
        ("point_mass", "dim", 0), ("gridworld", "max_torque", 1.0),
        ("gridworld", "dim", 2), ("point_mass", "width", 3), ("pendulum", "init_radius", 1.0)])
    def test_bad_value_or_foreign_key_rejected(self, name, key, value):
        with pytest.raises(ValueError, match=f"{key}.*{name}"):
            make_env({"name": name, key: value})


class TestWorkers:
    def test_env_var_bounds_pool(self, monkeypatch):
        monkeypatch.setenv(harness.THREADS_ENV_VAR, "3")
        assert n_workers() == 3

    def test_invalid_env_var_rejected(self, monkeypatch):
        monkeypatch.setenv(harness.THREADS_ENV_VAR, "many")
        with pytest.raises(ValueError):
            n_workers()
        monkeypatch.setenv(harness.THREADS_ENV_VAR, "0")
        with pytest.raises(ValueError):
            n_workers()

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv(harness.THREADS_ENV_VAR, raising=False)
        assert n_workers() == (os.cpu_count() or 1)


class TestAggregation:
    def write_run(self, root, name, algorithm, seed, score, **extras):
        d = root / name
        d.mkdir(parents=True)
        (d / "summary.json").write_text(json.dumps(
            {"algorithm": algorithm, "seed": seed, "scaled_score": score, **extras}))
        return d

    def test_groups_by_demo_count(self, tmp_path):
        dirs = [self.write_run(tmp_path, f"a{i}", "gaifo", i, s, n_demos=1)
                for i, s in enumerate([0.2, 0.4])]
        dirs += [self.write_run(tmp_path, f"b{i}", "gaifo", i, s, n_demos=10)
                 for i, s in enumerate([0.8, 0.9, 1.0])]
        dirs.append(self.write_run(tmp_path, "c", "expert", 0, 1.0))
        report = aggregate_runs(dirs)
        gaifo = report["by_algorithm"]["gaifo"]
        assert gaifo["n_runs"] == 5
        assert gaifo["by_n_demos"]["1"]["n_runs"] == 2
        assert gaifo["by_n_demos"]["1"]["mean_scaled_score"] == pytest.approx(0.3)
        assert gaifo["by_n_demos"]["10"]["n_runs"] == 3
        assert gaifo["by_n_demos"]["10"]["mean_scaled_score"] == pytest.approx(0.9)
        assert report["by_algorithm"]["expert"] == {
            "n_runs": 1, "n_aborted": 0, "mean_scaled_score": 1.0, "std_scaled_score": 0.0}

    def test_matches_hand_aggregation(self, tmp_path):
        dirs = [self.write_run(tmp_path, f"r{i}", "gaifo", i, s)
                for i, s in enumerate([0.8, 0.9, 1.0])]
        dirs.append(self.write_run(tmp_path, "r9", "gail", 0, 0.5))
        report = aggregate_runs(dirs)
        assert report["by_algorithm"]["gaifo"]["n_runs"] == 3
        assert report["by_algorithm"]["gaifo"]["mean_scaled_score"] == pytest.approx(0.9)
        assert report["by_algorithm"]["gaifo"]["std_scaled_score"] == pytest.approx(
            np.std([0.8, 0.9, 1.0]))
        assert report["by_algorithm"]["gail"]["mean_scaled_score"] == 0.5

    def test_aborted_run_is_strict_json_and_counted_apart(self, tmp_path):
        """An aborted run whose final evaluation left NaN scores writes them
        as null; the pool takes only the finite run's score."""
        dirs = []
        for name, score, aborted in (("aborted", float("nan"), True), ("finite", 0.7, False)):
            report = il.imitation.TrainReport("bco", 0)
            report.final_return = report.scaled_score = score
            report.aborted = aborted
            dirs.append(tmp_path / name)
            dirs[-1].mkdir()
            report.save_summary(dirs[-1] / "summary.json")

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        summary = json.loads((dirs[0] / "summary.json").read_text(), parse_constant=reject)
        assert summary["final_return"] is None and summary["scaled_score"] is None
        assert summary["aborted"] is True
        assert aggregate_runs(dirs)["by_algorithm"]["bco"] == {
            "n_runs": 2, "n_aborted": 1, "mean_scaled_score": 0.7, "std_scaled_score": 0.0}

    def test_pure_rerun_identical(self, tmp_path):
        dirs = [self.write_run(tmp_path, f"r{i}", "gaifo", i, 0.1 * i)
                for i in range(4)]
        assert aggregate_runs(dirs) == aggregate_runs(dirs)

    def test_missing_summary_reported(self, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        with pytest.raises(FileNotFoundError, match="empty"):
            aggregate_runs([d])


class TestCli:
    def run(self, *argv):
        return harness.main(list(argv))

    def test_unknown_subcommand_usage_error(self, config_file):
        for command in ("frobnicate", "verify"):
            with pytest.raises(SystemExit) as exit_info:
                self.run(command, "--config", str(config_file))
            assert exit_info.value.code == 2

    def test_missing_demo_file_machine_readable_error(self, config_file, capsys):
        rc = self.run("train-gaifo", "--config", str(config_file),
                      "--demos", "/nonexistent/demos.bin")
        assert rc != 0
        err = capsys.readouterr().err.strip().splitlines()[-1]
        payload = json.loads(err)
        assert "demos.bin" in payload["message"]

    def test_invalid_config_nonzero_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[env]\nplanet = mars\n")
        rc = self.run("eval", "--config", str(bad), "--policy", "x")
        assert rc != 0
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ValueError"

    def test_zero_iterations_flag_kept(self, config_file, tmp_path, capsys):
        # the config's expert_iterations is 2; --iterations 0 trains none
        assert self.run("train-expert", "--config", str(config_file),
                        "--out", str(tmp_path), "--iterations", "0") == 0
        run_dir = Path(json.loads(capsys.readouterr().out.splitlines()[-1])["run_dir"])
        assert json.loads((run_dir / "summary.json").read_text())["iterations"] == 0

    def test_zero_demos_flag_kept(self, config_file, tmp_path, capsys):
        # the config's n_demos is 3; --n 0 reaches the recorder and is rejected
        env = make_env(ExperimentConfig.from_ini(config_file).env)
        expert = tmp_path / "expert.mlp"
        il.make_policy(env.spec, hidden=(16,), seed=0).save(expert)
        rc = self.run("record-demos", "--config", str(config_file), "--expert",
                      str(expert), "--out", str(tmp_path / "demos.bin"), "--n", "0")
        assert rc != 0
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ValueError" and "n_episodes" in payload["message"]
        assert not (tmp_path / "demos.bin").exists()

    def test_policy_of_another_env_rejected(self, tmp_path, capsys):
        """eval rejects a checkpoint before any episode when it is no policy's,
        or when its kind and outputs do not fit the env: a point-mass dim=2
        policy has the 2x2 gridworld's obs dim, 4."""
        ini = tmp_path / "grid.ini"
        ini.write_text("[env]\nname = gridworld\nwidth = 2\nheight = 2\n")
        point_mass = tmp_path / "point_mass.mlp"
        il.make_policy(il.PointMass(dim=2).spec, hidden=(8,), seed=0).save(point_mass)
        disc = tmp_path / "disc.mlp"
        il.nets.save_mlp(disc, il.adversary.Discriminator(8, hidden=(8,)).params)
        for path, problem in [
                (point_mass, "policy ('gaussian', 2) != env policy ('categorical', 4)"),
                (disc, "header: unknown policy kind None")]:
            rc = self.run("eval", "--config", str(ini), "--policy", str(path), "--episodes", "2")
            assert rc != 0
            payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert payload["error"] == "ValueError"
            assert payload["message"].startswith(str(path)) and problem in payload["message"]

    def test_full_pipeline(self, config_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(harness.THREADS_ENV_VAR, "1")
        out = tmp_path / "runs"

        # train a (tiny) expert and record demos
        assert self.run("train-expert", "--config", str(config_file),
                        "--out", str(out)) == 0
        expert_dir = json.loads(capsys.readouterr().out.splitlines()[-1])["run_dir"]
        expert_policy = os.path.join(expert_dir, "expert_policy.mlp")
        demo_path = tmp_path / "demos.bin"
        assert self.run("record-demos", "--config", str(config_file),
                        "--expert", expert_policy, "--out", str(demo_path)) == 0
        capsys.readouterr()

        # all three trainers run end to end
        for cmd in ("train-gaifo", "train-bco"):
            assert self.run(cmd, "--config", str(config_file),
                            "--demos", str(demo_path), "--out", str(out)) == 0
            run_dir = json.loads(capsys.readouterr().out.splitlines()[-1])["run_dir"]
            assert os.path.exists(os.path.join(run_dir, "progress.csv"))
            assert os.path.exists(os.path.join(run_dir, "summary.json"))

        demo_a_path = tmp_path / "demos_a.bin"
        assert self.run("record-demos", "--config", str(config_file),
                        "--expert", expert_policy, "--out", str(demo_a_path),
                        "--with-actions") == 0
        capsys.readouterr()
        assert self.run("train-gail", "--config", str(config_file),
                        "--demos", str(demo_a_path), "--out", str(out)) == 0
        gail_dir = json.loads(capsys.readouterr().out.splitlines()[-1])["run_dir"]

        # eval the trained policy checkpoint
        assert self.run("eval", "--config", str(config_file),
                        "--policy", os.path.join(gail_dir, "policy.mlp"),
                        "--episodes", "2") == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert "mean_return" in payload

        # aggregate everything written so far
        run_dirs = [str(p) for p in out.iterdir() if (p / "summary.json").exists()]
        assert self.run("report", "--runs", *run_dirs) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report["by_algorithm"]) >= {"gaifo", "bco", "gail"}
        assert set(report["by_algorithm"]["gaifo"]["by_n_demos"]) == {"3"}

    def test_sweep_single_worker(self, config_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(harness.THREADS_ENV_VAR, "1")
        env = make_env({"name": "gridworld", "width": 3, "height": 3,
                        "horizon": 20})
        _, table = value_iteration(env.mdp, env.spec.gamma)
        demos = il.record_demonstrations(TabularPolicy(table), env, 3, 0)
        demo_path = tmp_path / "demos.bin"
        demos.save(demo_path)
        sweep_ini = tmp_path / "sweep.ini"
        sweep_ini.write_text(BASE_INI + "seeds = 0 1\ndemo_counts = 1 2\n")
        out = tmp_path / "sweep_runs"
        rc = self.run("sweep", "--config", str(sweep_ini),
                      "--demos", str(demo_path), "--out", str(out))
        results = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert [(r["n_demos"], r["seed"]) for r in results] == \
            [(1, 0), (1, 1), (2, 0), (2, 1)]
        assert all(r["status"] == "ok" for r in results)

    def test_sweep_records_partial_failures(self, config_file, tmp_path,
                                            capsys, monkeypatch):
        monkeypatch.setenv(harness.THREADS_ENV_VAR, "1")
        env = make_env({"name": "gridworld", "width": 3, "height": 3,
                        "horizon": 20})
        _, table = value_iteration(env.mdp, env.spec.gamma)
        demos = il.record_demonstrations(TabularPolicy(table), env, 2, 0)
        demo_path = tmp_path / "demos.bin"
        demos.save(demo_path)
        sweep_ini = tmp_path / "sweep.ini"
        # demo count 5 exceeds the pool of 2: that cell fails, others finish
        sweep_ini.write_text(BASE_INI + "seeds = 0\ndemo_counts = 1 5\n")
        rc = self.run("sweep", "--config", str(sweep_ini),
                      "--demos", str(demo_path), "--out", str(tmp_path / "r"))
        results = json.loads(capsys.readouterr().out)
        assert rc != 0
        by_count = {r["n_demos"]: r for r in results}
        assert by_count[1]["status"] == "ok"
        assert by_count[5]["status"] == "error"
