"""The benchmark's workloads: set-up, one trainer call, and output checks.

Each workload goes the way the command line's ``record-demos`` then
``train-*`` flow goes: a ``harness.ExperimentConfig``, ``harness.make_env``,
an expert, state-only demonstrations written with ``DemonstrationSet.save``
and read back with ``DemonstrationSet.load``, then one call of a public
trainer. ``harness.run_sweep`` is left out on purpose: on a 2-CPU machine its
process pool of multithreaded-BLAS workers measures the scheduler rather than
the program.

Every function of the library is looked up through its module at call time,
so a `tracer.Tracer` installed around `run_once` sees the calls.
"""

import hashlib
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import ifo_lab as il
from tracer import SETUP_ROOT

N_DEMOS = 10
GRIDWORLD = {"name": "gridworld", "width": 5, "height": 5, "horizon": 50}

# Spans that every traced run of a workload must record at least once; a
# zero count means a wrapper sits at the wrong lookup site or a function was
# renamed.
_GAIFO_SPANS = (
    "nets.mlp_forward", "nets.mlp_backward", "nets.mlp_jvp", "nets.adam_step",
    "envs.step", "envs.rollout", "trpo.StochasticPolicy.act",
    "trpo.trpo_update", "trpo.conjugate_gradient", "trpo.FvpOperator",
    "trpo.surrogate_loss", "trpo.mean_kl", "trpo.ValueFunction.fit",
    "trpo.compute_advantages", "adversary.disc_update",
    "adversary.disc_values", "occupancy.occupancy_distance",
    "imitation.collect_batch", "imitation.evaluate",
)


def _point_mass_expert(env):
    return il.envs.PointMassController(env), None


def _value_iteration_expert(env):
    _, table = il.envs.value_iteration(env.mdp, env.spec.gamma)
    return il.envs.TabularPolicy(table), table


@dataclass(frozen=True)
class Workload:
    name: str
    env: dict                  # the [env] section of the experiment config
    train: dict                # the [train] section
    trainer: str               # "gaifo_train" or "bco_train"
    expert: object             # env -> (expert policy, policy table or None)
    exact_occupancy: bool      # hand the trainer the exact expert occupancy
    halving_check: bool        # criterion 6: final occupancy distance <= first / 2
    expected_spans: tuple


WORKLOADS = {w.name: w for w in (
    Workload(
        name="pointmass-gaifo",
        env={"name": "point_mass"},
        train={"iterations": 10, "batch_size": 2048, "hidden": (64, 64),
               "eval_every": 10, "early_stop": False},
        trainer="gaifo_train", expert=_point_mass_expert,
        exact_occupancy=False, halving_check=False,
        expected_spans=_GAIFO_SPANS + ("occupancy.empirical_occupancy",
                                       "imitation.demo_occupancy"),
    ),
    Workload(
        name="gridworld-gaifo",
        env=GRIDWORLD,
        train={"iterations": 20, "batch_size": 1024, "hidden": (64, 64),
               "eval_every": 10, "early_stop": False, "track_occupancy": True,
               "d_steps": 5, "disc_lr": 1e-3},
        trainer="gaifo_train", expert=_value_iteration_expert,
        exact_occupancy=True, halving_check=True,
        expected_spans=_GAIFO_SPANS + ("occupancy.exact_occupancy",),
    ),
    Workload(
        name="gridworld-bco",
        env=GRIDWORLD,
        train={"exploration_steps": 50_000},
        trainer="bco_train", expert=_value_iteration_expert,
        exact_occupancy=False, halving_check=False,
        expected_spans=("nets.mlp_forward", "nets.mlp_backward",
                        "nets.adam_step", "envs.step", "envs.rollout",
                        "imitation.collect_batch", "imitation.evaluate",
                        "imitation.fit_inverse_model"),
    ),
)}


def derive_seeds(seed):
    """(demonstration seed, trainer seed) for a benchmark seed."""
    demo_seed, train_seed = np.random.SeedSequence(seed).generate_state(2)
    return int(demo_seed), int(train_seed)


def setup(workload, seed, workdir, overrides=None):
    """Everything before the trainer call. Returns the trainer's arguments."""
    harness, imitation = il.harness, il.imitation
    demo_seed, train_seed = derive_seeds(seed)
    config = harness.ExperimentConfig(
        env=workload.env, train={**workload.train, **(overrides or {})},
        run={"seed": train_seed, "n_demos": N_DEMOS})
    env = harness.make_env(config.env)
    expert, table = workload.expert(env)
    demos = imitation.record_demonstrations(expert, env, N_DEMOS, demo_seed)
    path = Path(workdir) / f"{workload.name}-demos.bin"
    demos.save(path)
    demos = imitation.DemonstrationSet.load(path)
    kwargs = {}
    if workload.exact_occupancy:
        gamma = config.train.gamma if config.train.gamma is not None else env.spec.gamma
        kwargs["expert_occupancy"] = il.occupancy.exact_occupancy(env.mdp, table, gamma)
    return (env, demos, config.train, train_seed), kwargs


def policy_digest(policy):
    """SHA-256 of the final policy parameters as little-endian float64."""
    flat = np.ascontiguousarray(policy.flat_params(), dtype="<f8")
    return hashlib.sha256(flat.tobytes()).hexdigest()


def check_outputs(workload, config, policy, report):
    """Reasons the run counts as failed; empty when its outputs are good."""
    problems = []
    if report.aborted:
        problems.append("report.aborted is set")
    budget = config.iterations if workload.trainer == "gaifo_train" else 1
    if len(report.rows) < budget:
        problems.append(f"completed {len(report.rows)} of {budget} iterations")
    if not np.all(np.isfinite(policy.flat_params())):
        problems.append("final policy parameters are not finite")
    if report.scaled_score is None or not np.isfinite(report.scaled_score):
        problems.append(f"scaled score {report.scaled_score} is not finite")
    if workload.halving_check and report.rows:
        first = report.rows[0]["occupancy_distance"]
        last = report.rows[-1]["occupancy_distance"]
        if not last <= 0.5 * first:
            problems.append(f"occupancy distance went from {first:.4f} to "
                            f"{last:.4f}, not halved")
    if workload.trainer == "bco_train":
        metric = report.extras.get("inverse_val_metric")
        if metric is None or not metric <= config.inverse_val_threshold:
            problems.append(f"inverse model validation metric {metric} above "
                            f"{config.inverse_val_threshold}")
    return problems


def run_once(workload, seed, workdir, tracer=None, overrides=None):
    """Set up and train once; a raising trainer is recorded, not raised.

    Returns {"setup_s", "train_s", "problems", "policy_sha256",
    "scaled_score", "iterations"}. With a tracer, set-up runs under a
    `SETUP_ROOT` span and the trainer call is the other root.
    """
    start = time.perf_counter()
    with tracer.span(SETUP_ROOT) if tracer else nullcontext():
        args, kwargs = setup(workload, seed, workdir, overrides)
    trainer = getattr(il.imitation, workload.trainer)
    called = time.perf_counter()
    try:
        policy, report = trainer(*args, **kwargs)
        error = None
    except Exception:
        error = traceback.format_exc(limit=-3)
    done = time.perf_counter()
    result = {"setup_s": called - start, "train_s": done - called,
              "policy_sha256": None, "scaled_score": None, "iterations": 0}
    if error is not None:
        result["problems"] = [f"trainer raised: {error}"]
        return result
    result.update(problems=check_outputs(workload, args[2], policy, report),
                  policy_sha256=policy_digest(policy),
                  scaled_score=report.scaled_score, iterations=len(report.rows))
    return result
