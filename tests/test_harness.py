"""Harness: INI config parsing with strict keys, the environment factory,
worker-pool bounds, sweep merging, report aggregation purity, and the CLI
surface end to end."""

import json
import os

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

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[train]\nlerning_rate = 3\n")
        with pytest.raises(ValueError, match="lerning_rate"):
            ExperimentConfig.from_ini(path)

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
            "n_runs": 1, "mean_scaled_score": 1.0, "std_scaled_score": 0.0}

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

    def test_verify_passes(self, config_file):
        assert self.run("verify", "--config", str(config_file)) == 0

    def test_unknown_subcommand_usage_error(self):
        with pytest.raises(SystemExit):
            self.run("frobnicate")

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
