"""Environments: tabular MDP validity, gridworld dynamics, continuous
dynamics against independent integrators, batched stepping, and rollout
contracts."""

import numpy as np
import pytest

from ifo_lab import envs
from ifo_lab.occupancy import exact_occupancy
from ifo_lab.trpo import make_policy


def two_state_alternation():
    P = np.zeros((2, 1, 2))
    P[0, 0, 1] = 1.0
    P[1, 0, 0] = 1.0
    return envs.TabularMDP(P=P, R=np.zeros((2, 1)), p0=np.array([1.0, 0.0]))


class TestTabularMDP:
    def test_rejects_non_stochastic_rows(self):
        P = np.zeros((2, 1, 2))
        P[:, 0, 0] = 0.9  # rows sum to 0.9
        with pytest.raises(ValueError):
            envs.TabularMDP(P=P, R=np.zeros((2, 1)), p0=np.array([1.0, 0.0]))

    def test_rejects_bad_p0(self):
        P = np.zeros((2, 1, 2))
        P[:, 0, 0] = 1.0
        with pytest.raises(ValueError):
            envs.TabularMDP(P=P, R=np.zeros((2, 1)), p0=np.array([0.5, 0.0]))

    def test_rejects_negative_probabilities(self):
        P = np.zeros((2, 1, 2))
        P[:, 0, 0] = 1.5
        P[:, 0, 1] = -0.5
        with pytest.raises(ValueError):
            envs.TabularMDP(P=P, R=np.zeros((2, 1)), p0=np.array([1.0, 0.0]))


class TestGridworld:
    def test_deterministic_moves(self):
        env = envs.gridworld(5, 5, slip_prob=0.0)
        env.reset(0)
        assert env.state_index == 0  # cell (0, 0) for every seed
        env.step(0)  # right
        assert env.state_index == 1
        env.step(2)  # up
        assert env.state_index == 6

    def test_walls_bump(self):
        env = envs.gridworld(3, 3, slip_prob=0.0)
        env.reset(0)
        env.step(1)  # left from the left edge
        assert env.state_index == 0
        env.step(3)  # down from the bottom edge
        assert env.state_index == 0

    def test_reward_only_on_goal(self):
        env = envs.gridworld(2, 1, goal=(1, 0), slip_prob=0.0, horizon=3)
        env.reset(0)
        _, r0, _ = env.step(0)   # move onto the goal: reward paid for standing on start
        assert r0 == 0.0
        _, r1, _ = env.step(0)   # standing on the goal now
        assert r1 == 1.0

    def test_step_after_done_rejected(self):
        env = envs.gridworld(2, 2, horizon=2)
        env.reset(0)
        env.step(0)
        _, _, done = env.step(0)
        assert done
        with pytest.raises(RuntimeError):
            env.step(0)

    def test_transition_rows_stochastic_with_slip(self):
        env = envs.gridworld(4, 4, slip_prob=0.3)
        sums = env.mdp.P.sum(axis=2)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_value_iteration_policy_reaches_goal(self):
        env = envs.gridworld(5, 5, slip_prob=0.0, horizon=40)
        _, table = envs.value_iteration(env.mdp, env.spec.gamma)
        policy = envs.TabularPolicy(table)
        trajs = envs.rollout(policy, env, 5, 0, deterministic=True)
        goal = 24
        for tr in trajs:
            assert tr.state_indices[-1] == goal
            # shortest path is 8 moves; 32 on-goal steps of reward 1 follow
            assert tr.total_return == pytest.approx(32.0)


class TestPointMass:
    def test_zero_force_at_rest_stays(self):
        env = envs.PointMass(init_radius=0.0)
        obs = env.reset(0)
        np.testing.assert_array_equal(obs, np.zeros(4))
        obs, reward, _ = env.step(np.zeros(2))
        np.testing.assert_array_equal(obs, np.zeros(4))
        assert reward == 0.0

    def test_semi_implicit_euler_hand_step(self):
        env = envs.PointMass(init_radius=0.0, dt=0.05)
        env.reset(0)
        obs, reward, _ = env.step(np.array([1.0, 0.0]))
        # v' = v + dt*a = [0.05, 0]; x' = x + dt*v' = [0.0025, 0]
        np.testing.assert_allclose(obs, [0.0025, 0.0, 0.05, 0.0])
        assert reward == pytest.approx(-(0.0025**2) - 0.01 * 1.0)

    def test_actions_clipped_to_bounds(self):
        env = envs.PointMass(init_radius=0.0)
        env.reset(0)
        big, _, _ = env.step(np.array([100.0, 0.0]))
        env.reset(0)
        unit, _, _ = env.step(np.array([1.0, 0.0]))
        np.testing.assert_array_equal(big, unit)

    def test_reset_deterministic_in_seed(self):
        env = envs.PointMass()
        np.testing.assert_array_equal(env.reset(7), env.reset(7))

    def test_pd_controller_homes_in(self):
        env = envs.PointMass()
        expert = envs.PointMassController(env)
        trajs = envs.rollout(expert, env, 3, 0, deterministic=True)
        for tr in trajs:
            assert np.linalg.norm(tr.states[-1][:2]) < 0.05


class TestPendulum:
    def test_reset_deterministic_and_hanging(self):
        env = envs.PendulumSwingup()
        obs = env.reset(7)
        np.testing.assert_array_equal(obs, env.reset(7))
        assert obs[0] < -0.99  # cos(theta) near -1: hanging down

    def test_trajectory_matches_rk4_oracle(self):
        # zero-torque motion vs a 1000-substep RK4 integration of the same
        # ODE; semi-implicit Euler at dt=0.05 tracks it to ~3e-3 here
        env = envs.PendulumSwingup(damping=0.05)
        env.reset(7)
        theta, omega = env._theta[0], env._omega[0]

        def deriv(y):
            th, om = y
            return np.array([om, 9.8 * np.sin(th) - 0.05 * om])

        y = np.array([theta, omega])
        h = 0.05 / 1000
        thetas, omegas = [theta], [omega]
        ref = [y.copy()]
        for _ in range(40):
            env.step([0.0])
            thetas.append(env._theta[0])
            omegas.append(env._omega[0])
            for _ in range(1000):
                k1 = deriv(y)
                k2 = deriv(y + h / 2 * k1)
                k3 = deriv(y + h / 2 * k2)
                k4 = deriv(y + h * k3)
                y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            ref.append(y.copy())
        ref = np.array(ref)
        assert np.abs(np.unwrap(thetas) - ref[:, 0]).max() < 0.01
        assert np.abs(np.array(omegas) - ref[:, 1]).max() < 0.01

    def test_energy_conserved_without_damping_or_torque(self):
        env = envs.PendulumSwingup(damping=0.0)
        env.reset(7)
        e0 = env.energy()
        drift = []
        for _ in range(200):
            env.step([0.0])
            drift.append(abs(env.energy() - e0))
        assert max(drift) < 0.01

    def test_damping_dissipates_energy(self):
        env = envs.PendulumSwingup(damping=0.05)
        env.reset(3)
        for _ in range(20):  # pump with max torque to get it moving
            env.step([2.0])
        e_start = env.energy()
        energies = [e_start]
        for _ in range(100):
            env.step([0.0])
            energies.append(env.energy())
        # net dissipation, with per-step discretization wobble bounded
        assert energies[-1] < e_start - 0.1
        assert np.diff(energies).max() < 0.05

    def test_torque_clipped(self):
        env = envs.PendulumSwingup(max_torque=2.0)
        env.reset(0)
        big, _, _ = env.step([100.0])
        env.reset(0)
        capped, _, _ = env.step([2.0])
        np.testing.assert_array_equal(big, capped)


class TestRollout:
    def test_deterministic_repeatability(self):
        env = envs.gridworld(4, 4, slip_prob=0.2)
        policy = envs.RandomPolicy(env.spec)
        a = envs.rollout(policy, env, 3, seed=9)
        b = envs.rollout(policy, env, 3, seed=9)
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.state_indices, tb.state_indices)
            np.testing.assert_array_equal(ta.actions, tb.actions)

    def test_horizon_respected(self):
        env = envs.PointMass(horizon=17)
        trajs = envs.rollout(envs.RandomPolicy(env.spec), env, 2, 0)
        assert all(tr.n_steps == 17 for tr in trajs)

    def test_non_finite_action_aborts_episode(self):
        class BadPolicy:
            def act(self, obs, rng, deterministic=False):
                return np.array([np.nan, 0.0])

        env = envs.PointMass()
        trajs = envs.rollout(BadPolicy(), env, 1, 0)
        assert trajs[0].aborted

    def test_empirical_visitation_matches_dp(self):
        # uniform policy on a slippery gridworld: discounted visitation from
        # 10k vectorized episodes vs the linear-system oracle
        env = envs.gridworld(4, 4, slip_prob=0.5, horizon=80, gamma=0.9)
        table = np.full((16, 4), 0.25)
        states = envs.simulate_tabular(env.mdp, table, 10_000, 80, seed=0)
        weights = 0.9 ** np.arange(81)
        emp = np.zeros(16)
        for t in range(81):
            emp += np.bincount(states[:, t], minlength=16) * weights[t]
        emp /= emp.sum()
        exact = exact_occupancy(env.mdp, table, 0.9).mass.sum(axis=1)
        exact = exact / exact.sum()
        assert np.abs(emp - exact).sum() < 0.05

    def test_simulate_tabular_agrees_with_rollout(self):
        env = envs.gridworld(3, 3, slip_prob=0.4, horizon=30, gamma=0.9)
        table = np.full((9, 4), 0.25)
        policy = envs.TabularPolicy(table)
        trajs = envs.rollout(policy, env, 400, seed=1)
        freq_a = np.bincount(
            np.concatenate([tr.state_indices for tr in trajs]), minlength=9)
        states = envs.simulate_tabular(env.mdp, table, 400, 30, seed=2)
        freq_b = np.bincount(states.ravel(), minlength=9)
        fa = freq_a / freq_a.sum()
        fb = freq_b / freq_b.sum()
        assert np.abs(fa - fb).sum() < 0.05


class TestBatchedStepping:
    def test_batch_reset_and_step_shapes(self):
        env = envs.PointMass()
        obs = env.reset([3, 4, 5])
        assert obs.shape == (3, 4)
        np.testing.assert_array_equal(obs[1], envs.PointMass().reset(4))
        obs, rewards, dones = env.step(np.zeros((3, 2)))
        assert obs.shape == (3, 4) and rewards.shape == (3,) and dones.shape == (3,)

    def test_subset_of_episodes_steps_alone(self):
        env = envs.gridworld(3, 3, slip_prob=0.0, horizon=4)
        env.reset([0, 1, 2])
        obs, rewards, dones = env.step(np.array([0, 2]), episodes=[0, 2])
        assert obs.shape == (2, 9)
        np.testing.assert_array_equal(env.state_index, [1, 0, 3])

    def test_step_after_episode_end_rejected_per_episode(self):
        env = envs.PointMass(horizon=2)
        env.reset([0, 1])
        env.step(np.zeros((2, 2)))
        env.step(np.zeros((1, 2)), episodes=[0])
        with pytest.raises(RuntimeError):
            env.step(np.zeros((2, 2)))
        _, _, done = env.step(np.zeros((1, 2)), episodes=[1])
        assert done[0]

    def test_step_before_reset_rejected(self):
        for env in (envs.gridworld(2, 2), envs.PointMass(), envs.PendulumSwingup()):
            with pytest.raises(RuntimeError):
                env.step(0)

    def test_action_shapes_and_ranges_checked(self):
        env = envs.PointMass()
        env.reset([0, 1])
        with pytest.raises(ValueError):
            env.step(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            env.step(np.zeros(2))
        grid = envs.gridworld(2, 2)
        grid.reset([0, 1])
        with pytest.raises(ValueError):
            grid.step(np.array([0, 4]))
        with pytest.raises(ValueError):
            grid.step(np.array([0]))
        pend = envs.PendulumSwingup()
        pend.reset(0)
        with pytest.raises(ValueError):
            pend.step([1.0, 2.0])

    def test_episodes_argument_needs_batch_reset(self):
        env = envs.PointMass()
        env.reset(0)
        with pytest.raises(ValueError):
            env.step(np.zeros((1, 2)), episodes=[0])


class TestSampleCategorical:
    def test_matches_generator_choice_draw_for_draw(self):
        probs = np.random.default_rng(0).dirichlet(np.full(6, 0.3), size=40)
        probs[3] = [0.0, 0.5, 0.0, 0.5, 0.0, 0.0]
        for seed in range(20):
            batch = envs.sample_categorical(
                probs, [np.random.default_rng([seed, i]) for i in range(40)])
            ref = [np.random.default_rng([seed, i]).choice(6, p=p)
                   for i, p in enumerate(probs)]
            np.testing.assert_array_equal(batch, ref)

    def test_rejects_what_choice_rejects(self):
        rngs = [np.random.default_rng(0)]
        for bad in ([[0.5, 0.6]], [[1.5, -0.5]], [[np.nan, 1.0]]):
            with pytest.raises(ValueError):
                np.random.default_rng(0).choice(2, p=bad[0])
            with pytest.raises(ValueError):
                envs.sample_categorical(bad, rngs)


def reference_rollout(policy, env, n_episodes, seed, deterministic=False):
    """The per-episode stepping loop that `rollout` replaced, on the
    single-episode API; the oracle for the lockstep rollout."""
    trajs = []
    tabular = env.spec.state_count > 0
    for ep_seed in envs.episode_seeds(seed, n_episodes):
        env_ss, policy_ss = np.random.SeedSequence(ep_seed).spawn(2)
        rng = np.random.default_rng(policy_ss)
        obs = env.reset(int(env_ss.generate_state(1)[0]))
        states, actions, rewards = [obs], [], []
        indices = [env.state_index] if tabular else None
        aborted = False
        done = False
        while not done:
            a = policy.act(obs, rng, deterministic=deterministic)
            if not np.all(np.isfinite(np.asarray(a, dtype=np.float64))):
                aborted = True
                break
            obs, r, done = env.step(a)
            states.append(obs)
            actions.append(a)
            rewards.append(r)
            if tabular:
                indices.append(env.state_index)
        trajs.append(envs.Trajectory(
            states=np.asarray(states, dtype=np.float64),
            actions=np.asarray(actions),
            rewards=np.asarray(rewards, dtype=np.float64),
            seed=ep_seed,
            state_indices=None if indices is None else np.asarray(indices, dtype=int),
            aborted=aborted,
        ))
    return trajs


def assert_same_episodes(got, want, tabular):
    """Tabular episodes bit-identical; continuous ones within 1e-12 (a
    batched GEMM row may differ from a one-row product in the last bit)."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.seed == w.seed and g.aborted == w.aborted
        assert g.states.shape == w.states.shape
        assert g.n_steps == w.n_steps
        if tabular:
            np.testing.assert_array_equal(g.state_indices, w.state_indices)
            np.testing.assert_array_equal(g.actions, w.actions)
            np.testing.assert_array_equal(g.states, w.states)
            np.testing.assert_array_equal(g.rewards, w.rewards)
        elif w.n_steps:
            np.testing.assert_allclose(g.states, w.states, rtol=0, atol=1e-12)
            np.testing.assert_allclose(g.actions, w.actions, rtol=0, atol=1e-12)
            np.testing.assert_allclose(g.rewards, w.rewards, rtol=0, atol=1e-12)


def _env_cases():
    grid = envs.gridworld(4, 4, slip_prob=0.3, horizon=30)
    point = envs.PointMass(horizon=60)
    pend = envs.PendulumSwingup(horizon=60)
    table = np.random.default_rng(0).dirichlet(np.ones(4), size=16)
    return [
        ("gridworld-categorical", grid, make_policy(grid.spec, hidden=(16, 16), seed=1)),
        ("gridworld-random", grid, envs.RandomPolicy(grid.spec)),
        ("gridworld-tabular", grid, envs.TabularPolicy(table)),
        ("pointmass-gaussian", point,
         make_policy(point.spec, hidden=(16, 16), seed=2, init_log_std=0.0)),
        ("pointmass-random", point, envs.RandomPolicy(point.spec)),
        ("pointmass-controller", point, envs.PointMassController(point)),
        ("pendulum-gaussian", pend,
         make_policy(pend.spec, hidden=(16, 16), seed=3, init_log_std=0.0)),
        ("pendulum-random", pend, envs.RandomPolicy(pend.spec)),
    ]


_CASES = _env_cases()


class TestLockstepRollout:
    @pytest.mark.parametrize("deterministic", [False, True])
    @pytest.mark.parametrize("case", _CASES, ids=[c[0] for c in _CASES])
    def test_matches_reference_loop(self, case, deterministic):
        _, env, policy = case
        got = envs.rollout(policy, env, 6, seed=11, deterministic=deterministic)
        want = reference_rollout(policy, env, 6, seed=11, deterministic=deterministic)
        assert_same_episodes(got, want, env.spec.state_count > 0)

    def test_states_are_contiguous_views(self):
        env = envs.PointMass(horizon=20)
        trajs = envs.rollout(envs.RandomPolicy(env.spec), env, 3, 0)
        for tr in trajs:
            assert tr.states.flags.c_contiguous
            assert tr.states.base is not None  # a view into the batch buffer

    def test_terminal_states_end_episodes_independently(self):
        # chain 0 -> 1 -> 2 -> 3 (terminal); action 0 advances w.p. 0.5,
        # action 1 w.p. 0.9, otherwise the state stays put
        P = np.zeros((4, 2, 4))
        for s in range(4):
            for a, p in enumerate((0.5, 0.9)):
                P[s, a, min(s + 1, 3)] += p
                P[s, a, s] += 1.0 - p
        R = np.zeros((4, 2))
        R[:, 1] = -0.1
        mdp = envs.TabularMDP(P, R, np.array([1.0, 0.0, 0.0, 0.0]),
                              terminal=np.array([False, False, False, True]))
        env = envs.TabularEnv(mdp, horizon=25, gamma=0.9)
        policy = envs.TabularPolicy(np.full((4, 2), 0.5))
        got = envs.rollout(policy, env, 12, seed=4)
        want = reference_rollout(policy, env, 12, seed=4)
        assert_same_episodes(got, want, tabular=True)
        lengths = {tr.n_steps for tr in got}
        assert len(lengths) > 3 and max(lengths) < 25
        assert all(tr.state_indices[-1] == 3 for tr in got)

    def test_non_finite_row_aborts_only_its_episode(self):
        env = envs.PointMass(horizon=40)
        expert = envs.PointMassController(env)
        clean = envs.rollout(expert, env, 4, seed=2)
        trigger = clean[2].states[10]

        class NanAtState:
            """The controller, except NaN on reaching one episode's state."""

            def act(self, obs, rng, deterministic=False):
                a = np.array(expert.act(obs, rng), dtype=np.float64)
                a[np.all(np.abs(obs - trigger) < 1e-12, axis=-1)] = np.nan
                return a

        got = envs.rollout(NanAtState(), env, 4, seed=2)
        assert_same_episodes(got, reference_rollout(NanAtState(), env, 4, seed=2),
                             tabular=False)
        assert [tr.aborted for tr in got] == [False, False, True, False]
        assert got[2].n_steps == 10
        np.testing.assert_array_equal(got[2].states, clean[2].states[:11])
        for i in (0, 1, 3):
            np.testing.assert_array_equal(got[i].states, clean[i].states)
            np.testing.assert_array_equal(got[i].actions, clean[i].actions)
