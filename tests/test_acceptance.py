"""Acceptance gate: eight end-to-end correctness and performance criteria.

Each test prints a single machine-greppable line of the form

    [PASS] criterion N (name): detail

outside pytest's output capture and then asserts, so the verdicts are
visible in the test log even on a fully green run.

The expensive adversarial runs (criteria 6 and 7) share session-scoped
fixtures so the whole gate stays within its runtime budgets.
"""

import time

import numpy as np
import pytest

import ifo_lab as il
from ifo_lab import adversary, nets, occupancy, trpo
from ifo_lab.envs import (PointMassController, RandomPolicy, TabularPolicy,
                          simulate_tabular, value_iteration)
from ifo_lab.imitation import (TrainConfig, collect_batch, fit_inverse_model,
                               record_demonstrations,
                               record_demonstrations_with_actions)

pytestmark = pytest.mark.acceptance


def _verdict(capfd, num, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}"
    with capfd.disabled():
        print(f"\n{line}", flush=True)
    assert ok, line


def _rel_err(analytic, fd):
    analytic = np.asarray(analytic).ravel()
    fd = np.asarray(fd).ravel()
    return float(np.abs(analytic - fd).max() / max(np.abs(fd).max(), 1e-8))


def _random_mdp(rng, n_states, n_actions):
    return il.TabularMDP(
        P=rng.dirichlet(np.ones(n_states), size=(n_states, n_actions)),
        R=rng.normal(size=(n_states, n_actions)),
        p0=rng.dirichlet(np.ones(n_states)),
    )


# ---------------------------------------------------------------------------
# shared expensive artifacts

POINT_MASS_SEEDS = range(10)
POINT_MASS_CFG = TrainConfig(iterations=100, batch_size=2048, hidden=(64, 64),
                             eval_every=10, early_stop=False,
                             track_occupancy=False)


@pytest.fixture(scope="session")
def point_mass_setup():
    env = il.PointMass()
    expert = PointMassController(env)
    demos = record_demonstrations(expert, env, 10, 1)
    demos_actions = record_demonstrations_with_actions(expert, env, 10, 1)
    return env, demos, demos_actions


@pytest.fixture(scope="session")
def gaifo_point_mass_scores(point_mass_setup):
    env, demos, _ = point_mass_setup
    scores = []
    for seed in POINT_MASS_SEEDS:
        _, report = il.gaifo_train(env, demos, POINT_MASS_CFG, seed)
        scores.append(report.scaled_score)
    return scores


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_gradient_exactness(capfd):
    """Every analytic gradient matches central finite differences with max
    relative error < 1e-4 across the network/activation matrix; < 60 s."""
    start = time.time()
    rng = np.random.default_rng(0)
    worst = 0.0

    # MLP losses under each hidden activation: a linear readout loss and
    # the clamped-sigmoid discriminator loss
    for activation in nets.HIDDEN_ACTIVATIONS:
        net = nets.init_mlp([4, 8, 6, 3], activation=activation, rng=rng)
        x = rng.normal(size=(7, 4))
        w = rng.normal(size=(7, 3))

        def loss_flat(flat, net=net, x=x, w=w):
            probe = net.copy()
            probe.set_flat(flat)
            out, _ = nets.mlp_forward(probe, x)
            return float(np.sum(w * out))

        _, cache = nets.mlp_forward(net, x)
        analytic = nets.mlp_backward(net, cache, w)
        fd = nets.finite_diff_grad(loss_flat, net.flatten())
        worst = max(worst, _rel_err(analytic, fd))

        disc = adversary.Discriminator(6, hidden=(8,), seed=3)
        disc.params.activation = activation
        imit = rng.normal(size=(5, 6))
        expert = rng.normal(size=(5, 6))
        _, analytic = adversary.disc_loss_grad(disc, imit, expert)

        def dloss_flat(flat, disc=disc, imit=imit, expert=expert):
            probe = adversary.Discriminator(6, hidden=(8,), seed=3)
            probe.params.activation = disc.params.activation
            probe.params.set_flat(flat)
            return adversary.disc_loss(probe, imit, expert)

        fd = nets.finite_diff_grad(dloss_flat, disc.params.flatten())
        worst = max(worst, _rel_err(analytic, fd))

    # policy-gradient surrogate and KL gradients, both distribution kinds
    for kind, n_out in [("categorical", 4), ("gaussian", 2)]:
        net = nets.init_mlp([3, 8, n_out], activation="tanh", rng=rng)
        log_std = np.full(n_out, -0.3) if kind == "gaussian" else None
        policy = trpo.StochasticPolicy(kind, net, log_std=log_std)
        states = rng.normal(size=(16, 3))
        actions = policy.act(states, np.random.SeedSequence(5).generate_state(16, np.uint64), 0)
        advantages = rng.normal(size=16)
        old_logp = policy.log_prob(states, actions)

        analytic = trpo.surrogate_grad(policy, states, actions,
                                       advantages, old_logp)

        def surr_flat(flat, policy=policy):
            probe = policy.copy()
            probe.set_flat(flat)
            return trpo.surrogate_loss(probe, states, actions,
                                       advantages, old_logp)

        fd = nets.finite_diff_grad(surr_flat, policy.flat_params())
        worst = max(worst, _rel_err(analytic, fd))

        old = policy.copy()
        perturbed = policy.copy()
        perturbed.set_flat(policy.flat_params()
                           + 0.05 * rng.normal(size=policy.flat_params().size))
        analytic = trpo.mean_kl_grad(old, perturbed, states)

        def kl_flat(flat, old=old, perturbed=perturbed):
            probe = perturbed.copy()
            probe.set_flat(flat)
            return trpo.mean_kl(old, probe, states)

        fd = nets.finite_diff_grad(kl_flat, perturbed.flat_params())
        worst = max(worst, _rel_err(analytic, fd))

    elapsed = time.time() - start
    _verdict(capfd, 1, "gradient exactness",
             worst < 1e-4 and elapsed < 60,
             f"max rel err {worst:.2e} (< 1e-4), {elapsed:.1f}s (< 60s)")


def test_criterion_2_occupancy_oracle(capfd):
    """Total occupancy mass equals 1/(1-gamma) within 1e-9 on 20 random
    MDPs; the two-state alternation hand case matches within
    1e-12; < 10 s."""
    start = time.time()
    rng = np.random.default_rng(42)
    worst_mass = 0.0
    for _ in range(20):
        n_states = int(rng.integers(2, 9))
        n_actions = int(rng.integers(2, 5))
        mdp = _random_mdp(rng, n_states, n_actions)
        table = rng.dirichlet(np.ones(n_actions), size=n_states)
        gamma = float(rng.uniform(0.5, 0.99))
        occ = occupancy.exact_occupancy(mdp, table, gamma)
        worst_mass = max(worst_mass, abs(occ.total_mass() - 1.0 / (1.0 - gamma)))

    # deterministic two-state alternation started in state 0, gamma = 0.5:
    # state 0 is visited at even steps (mass 1/(1-1/4) = 4/3) and state 1
    # at odd steps (mass (1/2)/(1-1/4) = 2/3)
    P = np.array([[[0.0, 1.0]], [[1.0, 0.0]]])
    mdp = il.TabularMDP(P=P, R=np.zeros((2, 1)), p0=np.array([1.0, 0.0]))
    occ = occupancy.exact_occupancy(mdp, np.ones((2, 1)), 0.5)
    marginals = occ.mass.sum(axis=1)
    hand_err = float(np.abs(marginals - np.array([4.0 / 3.0, 2.0 / 3.0])).max())

    elapsed = time.time() - start
    _verdict(capfd, 2, "occupancy oracle",
             worst_mass < 1e-9 and hand_err < 1e-12 and elapsed < 10,
             f"mass err {worst_mass:.1e} (< 1e-9), alternation err "
             f"{hand_err:.1e} (< 1e-12), {elapsed:.1f}s (< 10s)")


def test_criterion_3_estimator_consistency(capfd):
    """Empirical occupancy over 20k episodes on a 5x5 gridworld under a
    fixed stochastic policy is within normalized L1 0.05 of the exact
    occupancy, decreasing monotonically over {1k, 5k, 20k}; < 2 min."""
    start = time.time()
    env = il.gridworld(width=5, height=5, horizon=60)
    gamma = 0.9  # gamma^60 ~ 1.8e-3, so horizon truncation is negligible
    rng = np.random.default_rng(3)
    table = rng.dirichlet(np.ones(env.mdp.n_actions), size=env.mdp.n_states)
    exact = occupancy.exact_occupancy(env.mdp, table, gamma)
    distances = []
    for n_episodes in (1_000, 5_000, 20_000):
        idx = simulate_tabular(env.mdp, table, n_episodes, 60, 99)
        emp = occupancy.empirical_occupancy(idx, gamma,
                                            n_states=env.mdp.n_states)
        distances.append(occupancy.occupancy_distance(emp, exact))
    monotone = distances[0] > distances[1] > distances[2]
    elapsed = time.time() - start
    _verdict(capfd, 3, "estimator consistency",
             distances[-1] < 0.05 and monotone and elapsed < 120,
             f"L1 at 1k/5k/20k = {distances[0]:.4f}/{distances[1]:.4f}/"
             f"{distances[2]:.4f} (final < 0.05, monotone), "
             f"{elapsed:.1f}s (< 2min)")


def test_criterion_4_conjugacy(capfd):
    """Closed-form logistic-regularizer conjugate matches grid search within
    1e-4 on 100 random occupancy pairs; plugging the analytic optimal cost
    into the conjugate definition recovers it within 1e-6; no sampled cost
    exceeds the closed-form sup; < 60 s."""
    start = time.time()
    rng = np.random.default_rng(7)
    worst_grid = 0.0
    for _ in range(100):
        shape = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        a = rng.random(shape) * rng.uniform(0.5, 3.0)
        b = rng.random(shape) * rng.uniform(0.5, 3.0)
        closed = adversary.psi_ga_conjugate_closed(a, b)
        numeric = adversary.psi_ga_conjugate_numeric(a, b,
                                                     grid_resolution=1e-5)
        worst_grid = max(worst_grid, abs(closed - numeric))

    worst_def = 0.0
    violations = 0
    for trial in range(5):
        a = rng.random((4, 4)) + 0.05
        b = rng.random((4, 4)) + 0.05
        samples = [-rng.exponential(1.0, size=(4, 4)) - 1e-6
                   for _ in range(50)]
        check = adversary.conjugacy_definition_check(a, b, samples)
        worst_def = max(worst_def,
                        abs(check["optimal_cost_value"] - check["closed_form"]))
        violations += len(check["bound_violations"])

    elapsed = time.time() - start
    _verdict(capfd, 4, "conjugacy",
             worst_grid < 1e-4 and worst_def < 1e-6 and violations == 0
             and elapsed < 60,
             f"grid gap {worst_grid:.1e} (< 1e-4), definition gap "
             f"{worst_def:.1e} (< 1e-6), {violations} sup violations (= 0), "
             f"{elapsed:.1f}s (< 60s)")


def test_criterion_5_trust_region_contract(capfd, point_mass_setup):
    """Over 50 recorded adversarial imitation iterations, every accepted
    update has independently re-measured mean KL <= 1.1 * delta and
    non-negative surrogate improvement; the 2-action bandit strictly
    increases the better action's probability in one update; < 5 min."""
    start = time.time()
    env, demos, _ = point_mass_setup
    spec = env.spec
    delta = 0.01
    # the demonstrations' (n, T, obs_dim) views, flattened for the plain-array API
    s, s_next = (x.reshape(-1, spec.obs_dim) for x in demos.transition_pairs())
    expert_x = adversary.pair_features(s, s_next)

    policy = trpo.make_policy(spec, hidden=(64, 64), seed=0)
    vf = trpo.ValueFunction(spec.obs_dim, hidden=(64, 64), seed=1)
    disc = adversary.Discriminator(2 * spec.obs_dim, hidden=(64, 64), seed=2)
    rng = np.random.default_rng(3)
    accepted = 0
    kl_ok = True
    improvement_ok = True
    for it in range(50):
        batch = trpo.RolloutBatch.of(collect_batch(policy, env, 512, 1_000 + it))
        # the batch's (n, H, obs_dim) views, flattened for the plain-array API
        states = batch.states.reshape(-1, spec.obs_dim)
        old_logp = policy.log_prob(states, batch.actions)
        imit_x = adversary.pair_features(states, batch.next_states.reshape(-1, spec.obs_dim))
        idx = rng.integers(len(expert_x), size=len(imit_x))
        adversary.disc_update(disc, imit_x, expert_x[idx])
        batch.rewards = adversary.policy_reward(disc, imit_x)
        trpo.compute_advantages(batch, vf, spec.gamma, 0.97)
        old = policy.copy()
        base = trpo.surrogate_loss(policy, states, batch.actions,
                                   batch.advantages, old_logp)
        diag = trpo.trpo_update(policy, vf, batch, delta=delta)
        if diag["accepted"]:
            accepted += 1
            kl = trpo.mean_kl(old, policy, states)
            improvement = trpo.surrogate_loss(
                policy, states, batch.actions,
                batch.advantages, old_logp) - base
            kl_ok = kl_ok and kl <= 1.1 * delta
            improvement_ok = improvement_ok and improvement >= 0.0

    # 2-action bandit: action 0 pays 1, action 1 pays 0
    net = nets.init_mlp([3, 16, 2], activation="tanh",
                        rng=np.random.default_rng(14))
    bandit = trpo.StochasticPolicy("categorical", net)
    states = np.zeros((256, 3))
    actions = bandit.act(states, np.random.SeedSequence(0).generate_state(256, np.uint64), 0)
    rewards = (actions == 0).astype(float)
    batch = trpo.RolloutBatch(states=states, actions=actions, rewards=rewards,
                              next_states=states)
    adv = rewards - rewards.mean()
    batch.advantages = adv / adv.std()
    batch.returns = rewards

    def p_better(pol):
        out, _ = pol.dist(np.zeros((1, 3)))
        return float(np.exp(out[0, 0] - np.logaddexp(out[0, 0], out[0, 1])))

    p_before = p_better(bandit)
    bandit_diag = trpo.trpo_update(bandit, None, batch, delta=delta)
    bandit_ok = bandit_diag["accepted"] and p_better(bandit) > p_before

    elapsed = time.time() - start
    _verdict(capfd, 5, "trust-region contract",
             accepted >= 25 and kl_ok and improvement_ok and bandit_ok
             and elapsed < 300,
             f"{accepted}/50 accepted, all KL <= 1.1*delta: {kl_ok}, all "
             f"improvements >= 0: {improvement_ok}, bandit probability "
             f"increase: {bandit_ok}, {elapsed:.0f}s (< 5min)")


def test_criterion_6_end_to_end_state_only_imitation(
        capfd, point_mass_setup, gaifo_point_mass_scores):
    """Point-mass with 10 state-only demonstrations: mean scaled score over
    10 seeds >= 0.7 within 200 iterations, < 15 min total; tabular
    gridworld: occupancy distance to the expert drops >= 50% from iteration
    0 in >= 9/10 seeds."""
    start = time.time()
    mean_score = float(np.mean(gaifo_point_mass_scores))

    env = il.gridworld(width=5, height=5, horizon=50)
    gamma = env.spec.gamma
    _, table = value_iteration(env.mdp, gamma)
    demos = record_demonstrations(TabularPolicy(table), env, 10, 1)
    expert_occ = occupancy.exact_occupancy(env.mdp, table, gamma)
    cfg = TrainConfig(iterations=80, batch_size=1024, hidden=(64, 64),
                      eval_every=10, early_stop=False, track_occupancy=True,
                      d_steps=5, disc_lr=1e-3)
    halved = 0
    for seed in range(10):
        _, report = il.gaifo_train(env, demos, cfg, seed,
                                   expert_occupancy=expert_occ)
        dists = [row["occupancy_distance"] for row in report.rows]
        if dists[-1] <= 0.5 * dists[0]:
            halved += 1

    elapsed = time.time() - start
    _verdict(capfd, 6, "end-to-end state-only imitation",
             mean_score >= 0.7 and halved >= 9 and elapsed < 900,
             f"point-mass mean scaled score {mean_score:.3f} (>= 0.7) over "
             f"{len(gaifo_point_mass_scores)} seeds at 100 iterations; "
             f"gridworld occupancy distance halved in {halved}/10 seeds "
             f"(>= 9), {elapsed:.0f}s (< 15min)")


def test_criterion_7_comparability_with_action_aware_baseline(
        capfd, point_mass_setup, gaifo_point_mass_scores):
    """State-only adversarial imitation scores within 0.15 of the
    action-aware adversarial baseline on point-mass under identical budgets
    and seeds."""
    start = time.time()
    env, _, demos_actions = point_mass_setup
    gail_scores = []
    for seed in POINT_MASS_SEEDS:
        _, report = il.gail_train(env, demos_actions, POINT_MASS_CFG, seed)
        gail_scores.append(report.scaled_score)
    gap = abs(float(np.mean(gaifo_point_mass_scores))
              - float(np.mean(gail_scores)))
    elapsed = time.time() - start
    _verdict(capfd, 7, "comparability with action-aware baseline",
             gap <= 0.15,
             f"state-only mean {np.mean(gaifo_point_mass_scores):.3f} vs "
             f"action-aware mean {np.mean(gail_scores):.3f}, gap {gap:.3f} "
             f"(<= 0.15), {elapsed:.0f}s")


def test_criterion_8_baseline_integrity(capfd):
    """The inverse dynamics model reaches >= 95% held-out action accuracy on
    deterministic gridworld exploration data; cloning-from-observation runs
    report a scaled score per seed (comparative, no threshold)."""
    start = time.time()
    env = il.gridworld(width=8, height=8, horizon=50)
    cfg = TrainConfig(inverse_epochs=20)
    batch = trpo.RolloutBatch.of(collect_batch(RandomPolicy(env.spec), env, 20_000, 11))
    _, val_error = fit_inverse_model(batch.states, batch.actions,
                                     batch.next_states, env.spec, cfg, 13)
    accuracy = 1.0 - val_error

    env5 = il.gridworld(width=5, height=5, horizon=50)
    _, table = value_iteration(env5.mdp, env5.spec.gamma)
    demos = record_demonstrations(TabularPolicy(table), env5, 10, 1)
    bco_cfg = TrainConfig(exploration_steps=8_000, inverse_epochs=10,
                          track_occupancy=False)
    per_seed = []
    for seed in range(3):
        _, report = il.bco_train(env5, demos, bco_cfg, seed)
        per_seed.append(round(report.scaled_score, 3))

    elapsed = time.time() - start
    _verdict(capfd, 8, "baseline integrity",
             accuracy >= 0.95,
             f"inverse model held-out accuracy {accuracy:.3f} (>= 0.95); "
             f"cloning-from-observation scaled scores per seed {per_seed} "
             f"(reported, no threshold), {elapsed:.0f}s")
