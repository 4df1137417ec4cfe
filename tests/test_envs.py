"""Environments: tabular MDP validity, gridworld dynamics, continuous
dynamics against independent integrators, batched stepping, the
counter-based draws, and rollout contracts."""

import math

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
        env.reset([0])
        assert env.state_index.tolist() == [0]  # cell (0, 0) for every seed
        env.step([0])  # right
        assert env.state_index.tolist() == [1]
        env.step([2])  # up
        assert env.state_index.tolist() == [6]

    def test_walls_bump(self):
        env = envs.gridworld(3, 3, slip_prob=0.0)
        env.reset([0])
        env.step([1])  # left from the left edge
        assert env.state_index.tolist() == [0]
        env.step([3])  # down from the bottom edge
        assert env.state_index.tolist() == [0]

    def test_reward_only_on_goal(self):
        env = envs.gridworld(2, 1, goal=(1, 0), slip_prob=0.0, horizon=3)
        env.reset([0])
        _, r0, _ = env.step([0])   # move onto the goal: reward paid for standing on start
        assert r0.tolist() == [0.0]
        _, r1, _ = env.step([0])   # standing on the goal now
        assert r1.tolist() == [1.0]

    def test_step_after_done_rejected(self):
        env = envs.gridworld(2, 2, horizon=2)
        env.reset([0])
        env.step([0])
        _, _, done = env.step([0])
        assert done[0]
        with pytest.raises(RuntimeError):
            env.step([0])

    def test_transition_rows_stochastic_with_slip(self):
        env = envs.gridworld(4, 4, slip_prob=0.3)
        sums = env.mdp.P.sum(axis=2)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    @pytest.mark.parametrize("width, height, slip, goal", [
        (5, 5, 0.0, None), (3, 3, 0.3, None), (2, 1, 0.0, (1, 0)), (5, 3, 0.2, (1, 2)),
        (1, 1, 0.1, None)])
    def test_model_matches_cell_by_cell_construction(self, width, height, slip, goal):
        moves = np.zeros((width * height, 4), dtype=int)
        for y in range(height):
            for x in range(width):
                moves[y * width + x] = [y * width + min(x + 1, width - 1),
                                        y * width + max(x - 1, 0),
                                        min(y + 1, height - 1) * width + x,
                                        max(y - 1, 0) * width + x]
        P = np.zeros((width * height, 4, width * height))
        for s in range(width * height):
            uniform = np.zeros(width * height)
            for a in range(4):
                uniform[moves[s, a]] += 0.25
            for a in range(4):
                P[s, a] = slip * uniform
                P[s, a, moves[s, a]] += 1.0 - slip
        gx, gy = goal or (width - 1, height - 1)
        mdp = envs.gridworld(width, height, goal=goal, slip_prob=slip).mdp
        np.testing.assert_array_equal(mdp.P, P)
        assert np.flatnonzero(mdp.R[:, 0]).tolist() == [gy * width + gx]
        assert mdp.p0[0] == 1.0

    def test_value_iteration_policy_reaches_goal(self):
        env = envs.gridworld(5, 5, slip_prob=0.0, horizon=40)
        _, table = envs.value_iteration(env.mdp, env.spec.gamma)
        policy = envs.TabularPolicy(table)
        trajs = envs.rollout(policy, env, 5, 0, deterministic=True)
        goal = 24
        for tr in trajs:
            assert np.argmax(tr.states[-1]) == goal
            # shortest path is 8 moves; 32 on-goal steps of reward 1 follow
            assert tr.total_return == pytest.approx(32.0)


class TestPointMass:
    def test_zero_force_at_rest_stays(self):
        env = envs.PointMass(init_radius=0.0)
        obs = env.reset([0])
        np.testing.assert_array_equal(obs, np.zeros((1, 4)))
        obs, reward, _ = env.step(np.zeros((1, 2)))
        np.testing.assert_array_equal(obs, np.zeros((1, 4)))
        assert reward.tolist() == [0.0]

    def test_semi_implicit_euler_hand_step(self):
        env = envs.PointMass(init_radius=0.0, dt=0.05)
        env.reset([0])
        obs, reward, _ = env.step(np.array([[1.0, 0.0]]))
        # v' = v + dt*a = [0.05, 0]; x' = x + dt*v' = [0.0025, 0]
        np.testing.assert_allclose(obs, [[0.0025, 0.0, 0.05, 0.0]])
        assert reward[0] == pytest.approx(-(0.0025**2) - 0.01 * 1.0)

    def test_actions_clipped_to_bounds(self):
        env = envs.PointMass(init_radius=0.0)
        env.reset([0])
        big, _, _ = env.step(np.array([[100.0, 0.0]]))
        env.reset([0])
        unit, _, _ = env.step(np.array([[1.0, 0.0]]))
        np.testing.assert_array_equal(big, unit)

    def test_reset_deterministic_in_seed(self):
        env = envs.PointMass()
        np.testing.assert_array_equal(env.reset([7]), env.reset([7]))

    def test_pd_controller_homes_in(self):
        env = envs.PointMass()
        expert = envs.PointMassController(env)
        trajs = envs.rollout(expert, env, 3, 0, deterministic=True)
        for tr in trajs:
            assert np.linalg.norm(tr.states[-1][:2]) < 0.05


class TestPendulum:
    def test_reset_deterministic_and_hanging(self):
        env = envs.PendulumSwingup()
        obs = env.reset([7])
        np.testing.assert_array_equal(obs, env.reset([7]))
        assert obs[0, 0] < -0.99  # cos(theta) near -1: hanging down

    def test_trajectory_matches_rk4_oracle(self):
        # zero-torque motion vs a 1000-substep RK4 integration of the same
        # ODE; semi-implicit Euler at dt=0.05 tracks it to ~3e-3 here
        env = envs.PendulumSwingup(damping=0.05)
        env.reset([7])
        theta, omega = env._theta[0], env._omega[0]

        def deriv(y):
            th, om = y
            return np.array([om, 9.8 * np.sin(th) - 0.05 * om])

        y = np.array([theta, omega])
        h = 0.05 / 1000
        thetas, omegas = [theta], [omega]
        ref = [y.copy()]
        for _ in range(40):
            env.step([[0.0]])
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
        env.reset([7])
        (e0,) = env.energy()
        drift = []
        for _ in range(200):
            env.step([[0.0]])
            drift.append(abs(env.energy()[0] - e0))
        assert max(drift) < 0.01

    def test_damping_dissipates_energy(self):
        env = envs.PendulumSwingup(damping=0.05)
        env.reset([3])
        for _ in range(20):  # pump with max torque to get it moving
            env.step([[2.0]])
        (e_start,) = env.energy()
        energies = [e_start]
        for _ in range(100):
            env.step([[0.0]])
            energies.append(env.energy()[0])
        # net dissipation, with per-step discretization wobble bounded
        assert energies[-1] < e_start - 0.1
        assert np.diff(energies).max() < 0.05

    def test_torque_clipped(self):
        env = envs.PendulumSwingup(max_torque=2.0)
        env.reset([0])
        big, _, _ = env.step([[100.0]])
        env.reset([0])
        capped, _, _ = env.step([[2.0]])
        np.testing.assert_array_equal(big, capped)


class TestRollout:
    def test_deterministic_repeatability(self):
        env = envs.gridworld(4, 4, slip_prob=0.2)
        policy = envs.RandomPolicy(env.spec)
        a = envs.rollout(policy, env, 3, seed=9)
        b = envs.rollout(policy, env, 3, seed=9)
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(np.argmax(ta.states, axis=1),
                                          np.argmax(tb.states, axis=1))
            np.testing.assert_array_equal(ta.actions, tb.actions)

    def test_horizon_respected(self):
        env = envs.PointMass(horizon=17)
        trajs = envs.rollout(envs.RandomPolicy(env.spec), env, 2, 0)
        assert all(tr.n_steps == 17 for tr in trajs)

    def test_non_finite_action_aborts_episode(self):
        calls = []

        class BadPolicy:
            def act(self, obs, keys, t, deterministic=False):
                calls.append(t)
                return np.array([np.nan, 0.0])

        env = envs.PointMass()
        trajs = envs.rollout(BadPolicy(), env, 1, 0)
        assert trajs[0].aborted and trajs[0].n_steps == 0
        assert calls == [0]  # the rollout stops once every episode has aborted

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_episodes_rejected(self, n):
        env = envs.PointMass()
        with pytest.raises(ValueError, match="n_episodes"):
            envs.rollout(envs.RandomPolicy(env.spec), env, n, 0)

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
            np.concatenate([np.argmax(tr.states, axis=1) for tr in trajs]), minlength=9)
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
        np.testing.assert_array_equal(obs[1:2], envs.PointMass().reset([4]))
        obs, rewards, dones = env.step(np.zeros((3, 2)))
        assert obs.shape == (3, 4) and rewards.shape == (3,) and dones.shape == (3,)

    def test_step_before_reset_rejected(self):
        for env in (envs.gridworld(2, 2), envs.PointMass(), envs.PendulumSwingup()):
            with pytest.raises(RuntimeError):
                env.step([0])

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
        pend.reset([0])
        with pytest.raises(ValueError):
            pend.step([[1.0, 2.0]])


class TestSampleCategorical:
    def test_matches_generator_choice_draw_for_draw(self):
        # given the uniform that Generator.choice draws, the same index
        probs = np.random.default_rng(0).dirichlet(np.full(6, 0.3), size=40)
        probs[3] = [0.0, 0.5, 0.0, 0.5, 0.0, 0.0]
        for seed in range(20):
            u = [np.random.default_rng([seed, i]).random() for i in range(40)]
            ref = [np.random.default_rng([seed, i]).choice(6, p=p)
                   for i, p in enumerate(probs)]
            np.testing.assert_array_equal(envs.sample_categorical(probs, u), ref)

    def test_rejects_what_choice_rejects(self):
        for bad in ([[0.5, 0.6]], [[1.5, -0.5]], [[np.nan, 1.0]]):
            with pytest.raises(ValueError):
                np.random.default_rng(0).choice(2, p=bad[0])
            with pytest.raises(ValueError):
                envs.sample_categorical(bad, [0.5])

    def test_is_searchsorted_right_of_the_cdf(self):
        probs = np.random.default_rng(1).dirichlet(np.full(5, 0.5), size=300)
        probs[:100, 2] = 0.0
        probs[:100] /= probs[:100].sum(axis=1, keepdims=True)
        cdf = np.cumsum(probs, axis=1)
        cdf /= cdf[:, -1:]
        # uniforms that sit exactly on a cdf entry, and random ones
        u = np.concatenate([cdf[:150, 1], envs.uniforms(np.arange(150), 0, 0, 1)[:, 0]])
        got = envs.sample_categorical(probs, u)
        want = [np.searchsorted(c, x, side="right") for c, x in zip(cdf, u)]
        np.testing.assert_array_equal(got, want)
        assert not np.any(got[:100] == 2)  # zero mass is never drawn
        assert got.max() <= 4

    def test_rejects_mismatched_or_out_of_range_uniforms(self):
        probs = np.full((3, 2), 0.5)
        for u in ([0.5, 0.5], [[0.5, 0.5, 0.5]], [0.5, 1.0, 0.5], [0.5, -0.1, 0.5],
                  [0.5, np.nan, 0.5]):
            with pytest.raises(ValueError):
                envs.sample_categorical(probs, u)
        with pytest.raises(ValueError):
            envs.sample_categorical(np.full(2, 0.5), [0.5])


class TestCounterDraws:
    def test_known_answer(self):
        # pins the mixer: a promotion of any operand to float64 changes these
        bits = envs.random_bits([7], 0, 0, 4)
        assert bits.dtype == np.uint64
        assert [hex(int(b)) for b in bits[0]] == [
            "0xed47c95001e5f575", "0x10ce132015665d82",
            "0x98ba003f6726241f", "0x978728b38b938622"]
        assert [int(b) for b in envs.random_bits(np.array([2**64 - 1]), 5, 1, 2)[0]] == [
            9634659181090663102, 7194041298673929274]

    def test_stateless_and_batch_invariant(self):
        keys = np.array([3, 2**63 + 5, 11], dtype=np.uint64)
        u = envs.uniforms(keys, np.array([4, 9, 0]), 1, 3)
        for i in range(3):
            np.testing.assert_array_equal(
                u[i], envs.uniforms(keys[i:i + 1], [4, 9, 0][i], 1, 3)[0])

    def test_uniformity_chi_square(self):
        u = envs.uniforms(np.arange(10_000), 17, 1, 10).ravel()
        assert u.min() >= 0.0 and u.max() < 1.0
        counts = np.bincount((u * 100).astype(int), minlength=100)
        # chi-square with 99 degrees of freedom: P(> 148) < 1e-3
        assert ((counts - 1000.0) ** 2 / 1000.0).sum() < 148

    def test_low_bits_used(self):
        # 53 bits per uniform: the fractional bits below 2^-32 vary too
        u = envs.uniforms(np.arange(1000), 0, 0, 1)[:, 0]
        assert len(np.unique((u * 2.0**53 % 2.0**21).astype(np.int64))) > 990

    @pytest.mark.parametrize("axis", ["slot", "key", "step"])
    def test_independence(self, axis):
        # neighbours along one counter axis: |correlation| of 1e5 pairs
        keys = np.arange(100_000, dtype=np.uint64) * np.uint64(3) + np.uint64(7)
        base = envs.uniforms(keys, 5, 0, 2)
        if axis == "slot":
            a, b = base[:, 0], envs.uniforms(keys, 5, 1, 1)[:, 0]
        elif axis == "key":
            a, b = base[:, 0], envs.uniforms(keys + np.uint64(1), 5, 0, 1)[:, 0]
        else:
            a, b = base[:, 0], envs.uniforms(keys, 6, 0, 1)[:, 0]
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.015  # 4.7 sigma
        assert abs(np.corrcoef(base[:, 0], base[:, 1])[0, 1]) < 0.015

    def test_adjacent_reset_keys_independent(self):
        # env.reset([7, 8, 9]) draws from keys that differ in one bit or two
        steps = np.repeat(np.arange(20_000), 3)
        draws = envs.uniforms(np.tile([7, 8, 9], 20_000), steps, 0, 1).reshape(20_000, 3)
        corr = np.corrcoef(draws.T)
        assert np.abs(corr[np.triu_indices(3, 1)]).max() < 0.035

    def test_normals_moments_and_tails(self):
        z = envs.normals(np.arange(50_000), 2, 1, 4).ravel()
        assert np.all(np.isfinite(z))
        assert abs(z.mean()) < 0.01 and abs(z.std() - 1.0) < 0.01
        # chi-square over 12 bins with edges 0, +-0.5, ..., +-2.5 (11 dof)
        edges = np.arange(-2.5, 2.6, 0.5)
        cdf = np.array([0.5 * (1 + math.erf(e / math.sqrt(2))) for e in edges])
        expected = len(z) * np.diff(np.concatenate([[0.0], cdf, [1.0]]))
        counts = np.bincount(np.searchsorted(edges, z), minlength=12)
        # P(> 31.3) < 1e-3 at 11 degrees of freedom
        assert ((counts - expected) ** 2 / expected).sum() < 31.3


def reference_rollout(policy, env, n_episodes, seed, deterministic=False):
    """Each episode run alone, as a batch of one, with its own step
    counter; the oracle for the lockstep rollout."""
    trajs = []
    for key in np.random.SeedSequence(seed).generate_state(n_episodes, np.uint64):
        (obs,) = env.reset([key])
        states, actions, rewards = [obs], [], []
        aborted = False
        done = False
        t = 0
        while not done:
            (a,) = policy.act(obs[None], [key], t, deterministic=deterministic)
            t += 1
            if not np.all(np.isfinite(np.asarray(a, dtype=np.float64))):
                aborted = True
                break
            obs, r, done = (x[0] for x in env.step(a[None]))
            states.append(obs)
            actions.append(a)
            rewards.append(r)
        trajs.append(envs.Trajectory(
            states=np.asarray(states, dtype=np.float64),
            actions=np.asarray(actions),
            rewards=np.asarray(rewards, dtype=np.float64),
            seed=int(key), aborted=aborted,
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

    def test_non_finite_row_aborts_only_its_episode(self):
        cases = [c for c in _CASES
                 if c[0] in ("pointmass-controller", "pointmass-gaussian", "gridworld-tabular")]
        for _, env, policy in cases:
            self.check_abort_in_batch(env, policy)

    @staticmethod
    def check_abort_in_batch(env, policy):
        """One episode of four aborts at step 10; the batch stays whole."""
        tabular = env.spec.state_count > 0
        clean = envs.rollout(policy, env, 4, seed=2)
        key = clean[2].seed
        rows_seen = []

        class NanAtStep:
            """The policy, except NaN in one episode's row from step 10 on."""

            def act(self, obs, keys, t, deterministic=False):
                rows_seen.append(len(obs))
                a = np.array(policy.act(obs, keys, t), dtype=np.float64)
                a[(np.asarray(keys) == key) & (t >= 10)] = np.nan
                return a

        got = envs.rollout(NanAtStep(), env, 4, seed=2)
        # every act call covers the whole batch, the aborted episode too
        assert rows_seen == [4] * env.spec.horizon
        assert_same_episodes(got, reference_rollout(NanAtStep(), env, 4, seed=2), tabular)
        assert [tr.aborted for tr in got] == [False, False, True, False]
        assert got[2].n_steps == 10
        np.testing.assert_array_equal(got[2].states, clean[2].states[:11])
        for i in (0, 1, 3):
            np.testing.assert_array_equal(got[i].states, clean[i].states)
            np.testing.assert_array_equal(got[i].actions, clean[i].actions)
            np.testing.assert_array_equal(got[i].rewards, clean[i].rewards)
