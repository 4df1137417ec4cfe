"""Experiment harness: INI experiment configs, an environment factory, a
command-line front end, a seeded demo-count x seed sweep runner, and pure
report aggregation over finished runs.

Output layout: a train-* run writes under
<output_dir>/<config-hash>-<algorithm>-<seed>/ and a sweep cell under
<output_dir>/<config-hash>-demos<n>-seed<seed>/, so reruns with the same
config and seed land in the same place and different configs never collide.
"""

import argparse
import concurrent.futures
import configparser
import dataclasses
import hashlib
import json
import os
import sys
import traceback
from pathlib import Path

import numpy as np

from . import envs, imitation, trpo
from .imitation import (DemonstrationSet, DemonstrationSetWithActions,
                        TrainConfig, bco_train, evaluate, gail_train,
                        gaifo_train, record_demonstrations,
                        record_demonstrations_with_actions, train_expert)

THREADS_ENV_VAR = "IFO_LAB_THREADS"

_COMMON_ENV_KEYS = {"horizon": int, "gamma": float}
# [env] name -> (factory, the keys it takes besides name, horizon and gamma)
_ENVS = {
    "gridworld": (envs.gridworld, {"width": int, "height": int, "slip_prob": float}),
    "point_mass": (envs.PointMass, {"dim": int, "init_radius": float, "dt": float,
                                    "action_cost": float}),
    "pendulum": (envs.PendulumSwingup, {"dt": float, "max_torque": float, "damping": float}),
}
_ENV_KEYS = {"name": str, **_COMMON_ENV_KEYS,
             **{k: t for _, keys in _ENVS.values() for k, t in keys.items()}}

_RUN_KEYS = {
    "seed": int,
    "seeds": "int_list",
    "demo_counts": "int_list",
    "n_demos": int,
    "expert_iterations": int,
    "output_dir": str,
}

_RUN_DEFAULTS = {"seed": 0, "seeds": [0], "demo_counts": [10], "n_demos": 10,
                 "expert_iterations": 100, "output_dir": "runs"}


def _train_key_types():
    types = {}
    for f in dataclasses.fields(TrainConfig):
        if f.name == "hidden":
            types[f.name] = "int_list"
        elif f.name == "gamma":
            types[f.name] = float
        else:
            types[f.name] = type(f.default)
    return types

_TRAIN_KEYS = _train_key_types()


def _parse_value(raw, typ, section, key):
    try:
        if typ == "int_list":
            return [int(x) for x in raw.replace(",", " ").split()]
        if typ is bool:
            lowered = raw.strip().lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        return typ(raw)
    except ValueError:
        raise ValueError(f"[{section}] {key}: cannot parse {raw!r} as {typ}")


class ExperimentConfig:
    """Typed view of an INI experiment file with strict key checking."""

    SECTIONS = {"env": _ENV_KEYS, "train": _TRAIN_KEYS, "run": _RUN_KEYS}

    def __init__(self, env=None, train=None, run=None):
        self.env = {"name": "gridworld", **(env or {})}
        self.run = {**_RUN_DEFAULTS, **(run or {})}
        if self.run["n_demos"] < 1:
            raise ValueError(f"[run] n_demos must be >= 1, got {self.run['n_demos']}")
        train = dict(train or {})
        if "hidden" in train:
            train["hidden"] = tuple(train["hidden"])
        self.train = TrainConfig(**train)

    @classmethod
    def from_ini(cls, path):
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise FileNotFoundError(f"config file not found: {path}")
        sections = {}
        for section in parser.sections():
            if section not in cls.SECTIONS:
                raise ValueError(f"unknown config section [{section}]")
            schema = cls.SECTIONS[section]
            values = {}
            for key, raw in parser.items(section):
                if key not in schema:
                    raise ValueError(f"unknown key {key!r} in section [{section}]")
                values[key] = _parse_value(raw, schema[key], section, key)
            sections[section] = values
        return cls(env=sections.get("env"), train=sections.get("train"),
                   run=sections.get("run"))

    def to_dict(self):
        return {"env": self.env, "train": dataclasses.asdict(self.train),
                "run": self.run}

    def config_hash(self):
        """Short stable digest of the full config (output-path component)."""
        blob = json.dumps(self.to_dict(), sort_keys=True, default=list)
        return hashlib.sha256(blob.encode()).hexdigest()[:10]

    def run_dir(self, seed, root=None, tag=None):
        root = Path(root if root is not None else self.run["output_dir"])
        suffix = f"-{tag}" if tag else ""
        return root / f"{self.config_hash()}{suffix}-{seed}"


def make_env(env_cfg):
    """Environment factory keyed by the [env] section's name. A key of
    another environment, or an integer value below 1, is rejected."""
    cfg = dict(env_cfg)
    name = cfg.pop("name")
    if name not in _ENVS:
        raise ValueError(f"unknown environment {name!r}")
    factory, keys = _ENVS[name]
    keys = {**_COMMON_ENV_KEYS, **keys}
    for key, value in cfg.items():
        if key not in keys:
            raise ValueError(f"[env] {key} does not apply to environment {name!r}")
        if keys[key] is int and value < 1:
            raise ValueError(f"[env] {key} of environment {name!r} must be >= 1, got {value}")
    return factory(**cfg)


def n_workers():
    """Worker-pool size: IFO_LAB_THREADS if set, else the CPU count."""
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is None:
        return os.cpu_count() or 1
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}")
    if n < 1:
        raise ValueError(f"{THREADS_ENV_VAR} must be >= 1, got {n}")
    return n


def _write_run(out_dir, policy, report, policy_name="policy.mlp"):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    policy.save(out_dir / policy_name)
    report.to_csv(out_dir / "progress.csv")
    report.save_summary(out_dir / "summary.json")
    return out_dir


def _sweep_worker(args):
    """One sweep cell: train from the first n_demos trajectories at a seed.

    Module-level so a process pool can pickle it. Returns a result record;
    failures are captured, not raised, so one bad cell cannot sink a sweep.
    """
    config_path, demo_path, n_demos, seed, out_root = args
    try:
        config = ExperimentConfig.from_ini(config_path)
        env = make_env(config.env)
        demos = DemonstrationSet.load(demo_path).subset(n_demos)
        policy, report = gaifo_train(env, demos, config.train, seed)
        out_dir = Path(out_root) / f"{config.config_hash()}-demos{n_demos}-seed{seed}"
        _write_run(out_dir, policy, report)
        return {"n_demos": n_demos, "seed": seed, "status": "ok",
                "scaled_score": report.scaled_score,
                "final_return": report.final_return, "run_dir": str(out_dir)}
    except Exception as exc:  # recorded, not raised: partial sweeps are valid
        return {"n_demos": n_demos, "seed": seed, "status": "error",
                "error": f"{type(exc).__name__}: {exc}"}


def run_sweep(config_path, demo_path, demo_counts, seeds, out_root):
    """Train at every (demo count, seed) cell with a bounded worker pool.

    The merge order is deterministic (sorted by demo count, then seed)
    regardless of completion order; failed cells appear with status "error".
    """
    jobs = [(str(config_path), str(demo_path), n, s, str(out_root))
            for n in demo_counts for s in seeds]
    workers = min(n_workers(), len(jobs))
    if workers <= 1:
        results = [_sweep_worker(job) for job in jobs]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_worker, jobs))
    results.sort(key=lambda r: (r["n_demos"], r["seed"]))
    return results


def _score_stats(rows):
    """Run and abort counts, and the statistics of the finite scores."""
    scores = [s for s in (r.get("scaled_score") for r in rows) if s is not None and np.isfinite(s)]
    stats = {"n_runs": len(rows), "n_aborted": sum(bool(r.get("aborted")) for r in rows)}
    if scores:
        stats.update(mean_scaled_score=float(np.mean(scores)), std_scaled_score=float(np.std(scores)))
    return stats


def aggregate_runs(run_dirs):
    """Pure aggregation over finished run directories: reads summary.json
    files and groups scaled scores by (algorithm, demo count when present).

    by_algorithm[alg] counts the algorithm's runs (n_runs) and aborted runs
    (n_aborted) and pools their finite scores; when its runs record n_demos,
    its "by_n_demos" maps each demo count to the same over that count's runs.
    """
    summaries = []
    for run_dir in sorted(str(d) for d in run_dirs):
        path = Path(run_dir) / "summary.json"
        if not path.exists():
            raise FileNotFoundError(f"no summary.json in {run_dir}")
        with open(path) as fh:
            summary = json.load(fh)
        summary["run_dir"] = str(run_dir)
        summaries.append(summary)
    groups = {}
    for s in summaries:
        groups.setdefault(s.get("algorithm", "unknown"), []).append(s)
    report = {"runs": summaries, "by_algorithm": {}}
    for alg, rows in sorted(groups.items()):
        entry = report["by_algorithm"][alg] = _score_stats(rows)
        counts = sorted({r["n_demos"] for r in rows if "n_demos" in r})
        if counts:
            entry["by_n_demos"] = {str(n): _score_stats([r for r in rows if r.get("n_demos") == n])
                                   for n in counts}
    return report


def _load_policy(env, path):
    """A policy checkpoint whose inputs, kind and outputs fit env's spec."""
    policy = trpo.StochasticPolicy.load(path)
    spec = env.spec
    if policy.obs_dim != spec.obs_dim:
        raise ValueError(f"policy expects obs dim {policy.obs_dim}, "
                         f"env has {spec.obs_dim}")
    got = (policy.kind, policy.net.out_dim)
    want = (("categorical", spec.n_actions) if spec.action_kind == "discrete"
            else ("gaussian", spec.action_dim))
    if got != want:
        raise ValueError(f"{path}: policy {got} != env policy {want}")
    return policy


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ifo-lab",
        description="Train and evaluate imitation-from-observation agents.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--config", required=True, help="INI experiment config")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="override the [run] seed")

    p = sub.add_parser("train-expert", help="train an expert on the true reward")
    common(p)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--out", default=None, help="output root (default from config)")

    p = sub.add_parser("record-demos", help="record expert demonstrations")
    common(p)
    p.add_argument("--expert", required=True, help="expert policy checkpoint")
    p.add_argument("--n", type=int, default=None, help="trajectory count")
    p.add_argument("--out", required=True, help="demonstration file to write")
    p.add_argument("--with-actions", action="store_true",
                   help="retain actions (action-aware baseline only)")

    for name, help_text in [
            ("train-gaifo", "adversarial imitation from state-only demos"),
            ("train-gail", "action-aware adversarial baseline"),
            ("train-bco", "behavioral cloning from observation")]:
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.add_argument("--demos", required=True)
        p.add_argument("--out", default=None)

    p = sub.add_parser("sweep", help="demo-count x seed sweep of state-only training")
    common(p, seed=False)
    p.add_argument("--demos", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("eval", help="evaluate a policy checkpoint")
    common(p)
    p.add_argument("--policy", required=True)
    p.add_argument("--episodes", type=int, default=10)

    p = sub.add_parser("report", help="aggregate finished run directories")
    p.add_argument("--runs", nargs="+", required=True, help="run directories")
    p.add_argument("--out", default=None, help="write the aggregate JSON here")
    return parser


def cli_dispatch(args):
    if args.command == "report":
        report = aggregate_runs(args.runs)
        text = json.dumps(report, indent=2)
        if args.out:
            Path(args.out).write_text(text + "\n")
        print(text)
        return 0

    config = ExperimentConfig.from_ini(args.config)
    seed = getattr(args, "seed", None)
    seed = config.run["seed"] if seed is None else seed

    env = make_env(config.env)

    if args.command == "train-expert":
        iterations = config.run["expert_iterations"] if args.iterations is None else args.iterations
        policy, report = train_expert(env, config.train, iterations, seed)
        out_dir = _write_run(config.run_dir(seed, args.out, tag="expert"),
                             policy, report, policy_name="expert_policy.mlp")
        print(json.dumps({"run_dir": str(out_dir),
                          "final_return": report.final_return}))
        return 0

    if args.command == "record-demos":
        expert = _load_policy(env, args.expert)
        n = config.run["n_demos"] if args.n is None else args.n
        recorder = (record_demonstrations_with_actions if args.with_actions
                    else record_demonstrations)
        demos = recorder(expert, env, n, seed)
        demos.save(args.out)
        print(json.dumps({"demos": args.out, "n_trajectories": n,
                          "expert_mean_return": demos.expert_mean_return}))
        return 0

    if args.command in ("train-gaifo", "train-gail", "train-bco"):
        if args.command == "train-gail":
            demos = DemonstrationSetWithActions.load(args.demos)
            policy, report = gail_train(env, demos, config.train, seed)
        else:
            demos = DemonstrationSet.load(args.demos)
            train_fn = gaifo_train if args.command == "train-gaifo" else bco_train
            policy, report = train_fn(env, demos, config.train, seed)
        # tag run dirs by algorithm so trainers sharing a config don't collide
        tag = args.command.removeprefix("train-")
        out_dir = _write_run(config.run_dir(seed, args.out, tag=tag),
                             policy, report)
        print(json.dumps({"run_dir": str(out_dir),
                          "scaled_score": report.scaled_score,
                          "final_return": report.final_return}))
        return 0

    if args.command == "sweep":
        out_root = args.out or config.run["output_dir"]
        results = run_sweep(args.config, args.demos, config.run["demo_counts"],
                            config.run["seeds"], out_root)
        print(json.dumps(results, indent=2))
        return 1 if any(r["status"] != "ok" for r in results) else 0

    if args.command == "eval":
        policy = _load_policy(env, args.policy)
        mean, std = evaluate(policy, env, args.episodes, seed)
        print(json.dumps({"mean_return": mean, "std_return": std,
                          "episodes": args.episodes}))
        return 0

    raise ValueError(f"unhandled command {args.command!r}")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return cli_dispatch(args)
    except Exception as exc:
        # single machine-readable line, then nonzero exit
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        if os.environ.get("IFO_LAB_DEBUG"):
            traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
