"""Policy optimization: distribution math against hand formulas and finite
differences, GAE against a brute-force reference, conjugate gradient against
dense solves, Fisher-vector products against finite-difference
Hessian-vector products, and the update contract itself."""

import tracemalloc

import numpy as np
import pytest

from ifo_lab import envs, nets, trpo


def categorical_policy(obs_dim=3, n_actions=4, hidden=(8,), seed=0):
    spec = envs.EnvSpec(env_id="t", obs_dim=obs_dim, action_kind="discrete",
                        horizon=10, gamma=0.9, n_actions=n_actions)
    return trpo.make_policy(spec, hidden=hidden, seed=seed)


def gaussian_policy(obs_dim=3, action_dim=2, hidden=(8,), seed=0,
                    init_log_std=-0.5):
    spec = envs.EnvSpec(env_id="t", obs_dim=obs_dim, action_kind="box",
                        horizon=10, gamma=0.9, action_dim=action_dim)
    return trpo.make_policy(spec, hidden=hidden, seed=seed,
                            init_log_std=init_log_std)


class TestPolicyDistribution:
    def test_categorical_probs_sum_to_one(self):
        policy = categorical_policy(seed=1)
        states = np.random.default_rng(0).normal(size=(10, 3))
        out, _ = policy.dist(states)
        p = np.exp(out - out.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)

    def test_uniform_categorical_log_prob(self):
        policy = categorical_policy(n_actions=4)
        policy.net.set_flat(np.zeros(policy.net.n_params))  # uniform logits
        lp = policy.log_prob(np.ones((1, 3)), [2])
        assert lp[0] == pytest.approx(np.log(0.25))

    def test_standard_normal_log_prob_peak(self):
        policy = gaussian_policy(action_dim=1, init_log_std=0.0)
        policy.net.set_flat(np.zeros(policy.net.n_params))  # mean 0
        policy.log_std = np.zeros(1)
        lp = policy.log_prob(np.ones((1, 3)), np.zeros((1, 1)))
        assert lp[0] == pytest.approx(-0.5 * np.log(2 * np.pi))

    def test_gaussian_log_prob_rejects_flat_actions(self):
        # (5,) actions against (5, 1) means once broadcast to (5, 5) and
        # returned five wrong log-densities of the right shape
        policy = gaussian_policy(action_dim=1)
        states = np.random.default_rng(0).normal(size=(5, 3))
        with pytest.raises(ValueError, match=r"\(5, 1\), got \(5,\)"):
            policy.log_prob(states, np.zeros(5))

    def test_categorical_log_prob_rejects_column_actions(self):
        policy = categorical_policy()
        states = np.random.default_rng(0).normal(size=(5, 3))
        with pytest.raises(ValueError, match=r"\(5,\), got \(5, 1\)"):
            policy.log_prob(states, np.zeros((5, 1), dtype=int))

    def test_gaussian_tiny_std_acts_at_mean(self):
        policy = gaussian_policy(action_dim=2)
        policy.log_std = np.full(2, trpo.LOG_STD_MIN)
        obs = np.ones((1, 3))
        mean = policy.act(obs, [0], 0, deterministic=True)
        sample = policy.act(obs, [0], 0)
        np.testing.assert_allclose(sample, mean, atol=1e-1)

    def test_extreme_logit_dominates(self):
        policy = categorical_policy(n_actions=3)
        policy.net.set_flat(np.zeros(policy.net.n_params))
        policy.net.biases[-1][1] = 50.0
        draws = policy.act(np.zeros((50, 3)), np.arange(50), 0)
        assert all(a == 1 for a in draws)

    def test_act_deterministic_in_seed(self):
        policy = gaussian_policy(seed=4)
        obs = np.ones((1, 3))
        a1 = policy.act(obs, [5], 3)
        a2 = policy.act(obs, [5], 3)
        np.testing.assert_array_equal(a1, a2)

    def test_log_std_clamped(self):
        policy = gaussian_policy()
        flat = policy.flat_params()
        flat[-2:] = 100.0
        policy.set_flat(flat)
        assert np.all(policy.log_std == trpo.LOG_STD_MAX)

    def test_log_prob_gradient_matches_fd(self):
        for policy, action in ((categorical_policy(seed=2), 1),
                               (gaussian_policy(seed=2), np.array([0.3, -0.7]))):
            states = np.random.default_rng(1).normal(size=(1, 3))
            actions = [action] if policy.kind == "categorical" else action[None, :]

            def f(flat, policy=policy, actions=actions):
                probe = policy.copy()
                probe.set_flat(flat)
                return float(probe.log_prob(states, actions)[0])

            # FD probe of log_std must stay off the clamp boundary
            grad_an = trpo.surrogate_grad(policy, states, actions, np.array([1.0]),
                                          policy.log_prob(states, actions))
            fd = nets.finite_diff_grad(f, policy.flat_params())
            err = np.abs(grad_an - fd).max() / max(np.abs(fd).max(), 1e-12)
            assert err < 1e-4

    def test_checkpoint_roundtrip(self, tmp_path):
        policy = gaussian_policy(seed=7)
        path = tmp_path / "policy.mlp"
        policy.save(path)
        loaded = trpo.StochasticPolicy.load(path)
        assert loaded.kind == "gaussian"
        np.testing.assert_array_equal(loaded.flat_params(), policy.flat_params())


class TestMeanKl:
    def test_identical_policies_zero(self):
        policy = categorical_policy(seed=3)
        states = np.random.default_rng(2).normal(size=(6, 3))
        assert trpo.mean_kl(policy, policy.copy(), states) == pytest.approx(0.0)

    def test_gaussian_mean_shift_hand_formula(self):
        a = gaussian_policy(action_dim=1, init_log_std=0.0, seed=5)
        a.net.set_flat(np.zeros(a.net.n_params))
        a.log_std = np.zeros(1)
        b = a.copy()
        b.net.biases[-1][0] = 0.4  # means differ by 0.4, same unit std
        states = np.random.default_rng(3).normal(size=(5, 3))
        assert trpo.mean_kl(a, b, states) == pytest.approx(0.4**2 / 2.0)

    def test_kl_nonnegative_random_pairs(self):
        rng = np.random.default_rng(4)
        states = rng.normal(size=(8, 3))
        for seed in range(5):
            a = categorical_policy(seed=seed)
            b = categorical_policy(seed=seed + 100)
            assert trpo.mean_kl(a, b, states) >= -1e-12

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError):
            trpo.mean_kl(categorical_policy(n_actions=2),
                         gaussian_policy(action_dim=2), np.ones((1, 3)))

    def test_kl_gradient_matches_fd(self):
        old = gaussian_policy(seed=6)
        new = gaussian_policy(seed=16)
        states = np.random.default_rng(5).normal(size=(6, 3))
        grad = trpo.mean_kl_grad(old, new, states)

        def f(flat):
            probe = new.copy()
            probe.set_flat(flat)
            return trpo.mean_kl(old, probe, states)

        fd = nets.finite_diff_grad(f, new.flat_params())
        err = np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-12)
        assert err < 1e-4


class TestGae:
    def brute_force(self, rewards, values, dones, gamma, lam):
        # O(T^2): advantage at t is the lambda-weighted sum of k-step TD
        # errors, restarting at episode boundaries
        T = len(rewards)
        adv = np.zeros(T)
        for t in range(T):
            coef = 1.0
            for k in range(t, T):
                v_next = 0.0 if dones[k] else gamma * values[k + 1]
                adv[t] += coef * (rewards[k] + v_next - values[k])
                if dones[k]:
                    break
                coef *= gamma * lam
        return adv

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        T = 23
        rewards = rng.normal(size=T)
        values = rng.normal(size=T + 1)
        dones = np.zeros(T, bool)
        dones[[7, 15, 22]] = True
        got = trpo.gae(rewards, values, dones, 0.97, 0.95)
        expect = self.brute_force(rewards, values, dones, 0.97, 0.95)
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_lambda_zero_is_td_error(self):
        rng = np.random.default_rng(7)
        rewards = rng.normal(size=5)
        values = rng.normal(size=6)
        dones = np.array([False, False, False, False, True])
        got = trpo.gae(rewards, values, dones, 0.9, 0.0)
        expect = rewards + 0.9 * values[1:6] - values[:5]
        expect[-1] = rewards[-1] - values[4]
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_lambda_one_zero_values_is_return_to_go(self):
        rewards = np.array([1.0, 1.0, 1.0])
        values = np.zeros(4)
        dones = np.array([False, False, True])
        got = trpo.gae(rewards, values, dones, 0.5, 1.0)
        np.testing.assert_allclose(got, [1.75, 1.5, 1.0])

    def test_advantages_normalized(self):
        env = envs.PointMass(horizon=20)
        policy = gaussian_policy(obs_dim=4, action_dim=2, seed=8)
        trajs = envs.rollout(policy, env, 3, 0)
        batch = trpo.RolloutBatch.from_trajectories(trajs, policy)
        vf = trpo.ValueFunction(4, hidden=(8,), seed=0)
        trpo.compute_advantages(batch, vf, 0.99, 0.97)
        assert batch.advantages.mean() == pytest.approx(0.0, abs=1e-10)
        assert batch.advantages.std() == pytest.approx(1.0, abs=1e-8)


class TestConjugateGradient:
    def test_identity_one_iteration(self):
        b = np.array([1.0, -2.0, 3.0])
        x = trpo.conjugate_gradient(lambda v: v, b, iters=1)
        np.testing.assert_allclose(x, b)

    def test_hand_2x2(self):
        A = np.array([[4.0, 1.0], [1.0, 3.0]])
        x = trpo.conjugate_gradient(lambda v: A @ v, np.array([1.0, 2.0]), iters=10)
        np.testing.assert_allclose(x, [1.0 / 11.0, 7.0 / 11.0], atol=1e-10)

    def test_random_spd_matches_direct_solve(self):
        rng = np.random.default_rng(8)
        M = rng.normal(size=(8, 8))
        A = M @ M.T + 8 * np.eye(8)
        b = rng.normal(size=8)
        x = trpo.conjugate_gradient(lambda v: A @ v, b, iters=50, tol=1e-12)
        np.testing.assert_allclose(x, np.linalg.solve(A, b), atol=1e-8)

    def test_a_norm_error_monotone(self):
        rng = np.random.default_rng(9)
        M = rng.normal(size=(6, 6))
        A = M @ M.T + 6 * np.eye(6)
        b = rng.normal(size=6)
        x_star = np.linalg.solve(A, b)
        errors = []
        for iters in range(1, 7):
            x = trpo.conjugate_gradient(lambda v: A @ v, b, iters=iters)
            e = x - x_star
            errors.append(float(e @ A @ e))
        assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))

    def test_non_finite_operator_aborts(self):
        with pytest.raises(FloatingPointError):
            trpo.conjugate_gradient(lambda v: v * np.nan, np.ones(3))


class TestFisherVectorProduct:
    def test_zero_vector(self):
        policy = categorical_policy(seed=10)
        states = np.random.default_rng(10).normal(size=(5, 3))
        out = trpo.FvpOperator(policy, states, 0.1)(np.zeros(policy.n_params))
        np.testing.assert_array_equal(out, np.zeros(policy.n_params))

    def test_psd_plus_damping_bound(self):
        rng = np.random.default_rng(11)
        states = rng.normal(size=(6, 3))
        for policy in (categorical_policy(seed=11), gaussian_policy(seed=11)):
            v = rng.normal(size=policy.n_params)
            fvp = trpo.FvpOperator(policy, states, 0.1)(v)
            assert float(v @ fvp) >= 0.1 * float(v @ v) - 1e-10

    @pytest.mark.parametrize("kind", ["categorical", "gaussian"])
    def test_matches_finite_difference_hvp(self, kind):
        # HVP of KL(old || theta) at theta = old via central differences of
        # the analytic KL gradient; the FVP must match because the Fisher
        # is the KL Hessian at the old parameters
        policy = (categorical_policy(seed=12) if kind == "categorical"
                  else gaussian_policy(seed=12))
        rng = np.random.default_rng(12)
        states = rng.normal(size=(8, 3))
        v = rng.normal(size=policy.n_params)
        fvp = trpo.FvpOperator(policy, states, 0.0)(v)
        eps = 1e-5
        plus, minus = policy.copy(), policy.copy()
        plus.set_flat(policy.flat_params() + eps * v)
        minus.set_flat(policy.flat_params() - eps * v)
        hvp = (trpo.mean_kl_grad(policy, plus, states)
               - trpo.mean_kl_grad(policy, minus, states)) / (2 * eps)
        err = np.abs(fvp - hvp).max() / max(np.abs(hvp).max(), 1e-12)
        assert err < 1e-3


class TestFvpWorkspace:
    """The operator's cache keeps a workspace: repeated products equal those
    through a plain cache bit for bit and stop allocating hidden-layer
    arrays."""

    @staticmethod
    def policy_and_states(kind, rows, obs_dim, out_dim, hidden):
        make = categorical_policy if kind == "categorical" else gaussian_policy
        policy = make(obs_dim, out_dim, hidden=hidden, seed=13)
        states = np.random.default_rng(13).normal(size=(rows, obs_dim))
        return policy, states

    @pytest.mark.parametrize("kind", ["categorical", "gaussian"])
    def test_repeated_products_bit_identical_to_plain_cache(self, kind):
        policy, states = self.policy_and_states(kind, 40, 3, 4, (16, 8))
        fvp = trpo.FvpOperator(policy, states, 0.1)
        plain = trpo.FvpOperator(policy, states, 0.1)
        plain.cache = policy.dist(states)[1]
        rng = np.random.default_rng(14)
        results = []
        for _ in range(4):
            v = rng.normal(size=policy.n_params)
            got = fvp(v)
            assert got.tobytes() == plain(v).tobytes()
            results.append((got, got.copy()))
        assert "workspace" in fvp.cache and "workspace" not in plain.cache
        for got, copy in results:
            np.testing.assert_array_equal(got, copy)

    @pytest.mark.parametrize("kind, rows, obs_dim, out_dim", [
        ("gaussian", 2200, 4, 2),       # point-mass TRPO batch
        ("categorical", 1050, 25, 4),   # 5x5 gridworld TRPO batch
    ])
    def test_repeated_products_allocate_less_than_one_hidden_array(
            self, kind, rows, obs_dim, out_dim):
        # with a plain cache each product allocates about fifteen (rows, 64)
        # arrays; through the workspace it allocates none after the first
        policy, states = self.policy_and_states(kind, rows, obs_dim, out_dim, (64, 64))
        fvp = trpo.FvpOperator(policy, states, 0.1)
        v = np.random.default_rng(15).normal(size=policy.n_params)
        fvp(v)
        tracemalloc.start()
        try:
            for _ in range(3):
                fvp(v)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < rows * 64 * 8


class TestSurrogate:
    def test_gradient_matches_fd(self):
        for policy in (categorical_policy(seed=13), gaussian_policy(seed=13)):
            rng = np.random.default_rng(13)
            states = rng.normal(size=(6, 3))
            if policy.kind == "categorical":
                actions = rng.integers(4, size=6)
            else:
                actions = rng.normal(size=(6, 2))
            adv = rng.normal(size=6)
            old_logp = policy.log_prob(states, actions)
            grad = trpo.surrogate_grad(policy, states, actions, adv, old_logp)

            def f(flat):
                probe = policy.copy()
                probe.set_flat(flat)
                return trpo.surrogate_loss(probe, states, actions, adv, old_logp)

            fd = nets.finite_diff_grad(f, policy.flat_params())
            err = np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-12)
            assert err < 1e-4


class TestTrpoUpdate:
    def bandit_batch(self, policy, n=256, seed=0):
        """2-action bandit: reward 1 for action 0, 0 for action 1."""
        states = np.zeros((n, 3))
        actions = policy.act(states, np.random.SeedSequence(seed).generate_state(n, np.uint64), 0)
        rewards = (actions == 0).astype(float)
        batch = trpo.RolloutBatch(states=states, actions=actions, rewards=rewards,
                                  next_states=states, dones=np.ones(n, bool))
        batch.logps = policy.log_prob(states, actions)
        adv = rewards - rewards.mean()
        batch.advantages = (adv - adv.mean()) / adv.std()
        batch.returns = rewards
        return batch

    def test_zero_advantages_leave_policy(self):
        policy = categorical_policy(n_actions=2, seed=14)
        batch = self.bandit_batch(policy)
        batch.advantages = np.zeros(len(batch))
        before = policy.flat_params()
        diag = trpo.trpo_update(policy, None, batch)
        assert not diag["accepted"]
        np.testing.assert_array_equal(policy.flat_params(), before)

    def test_bandit_better_action_probability_increases(self):
        policy = categorical_policy(n_actions=2, seed=14)
        batch = self.bandit_batch(policy)
        out, _ = policy.dist(np.zeros((1, 3)))
        p_before = float(np.exp(out[0, 0] - np.logaddexp(out[0, 0], out[0, 1])))
        diag = trpo.trpo_update(policy, None, batch, delta=0.01)
        out, _ = policy.dist(np.zeros((1, 3)))
        p_after = float(np.exp(out[0, 0] - np.logaddexp(out[0, 0], out[0, 1])))
        assert diag["accepted"]
        assert p_after > p_before

    def test_accepted_step_respects_kl_and_improvement(self):
        policy = categorical_policy(n_actions=2, seed=15)
        old = policy.copy()
        batch = self.bandit_batch(policy, seed=1)
        diag = trpo.trpo_update(policy, None, batch, delta=0.01)
        assert diag["accepted"]
        assert diag["improvement"] >= 0.0
        kl = trpo.mean_kl(old, policy, batch.states)
        assert kl <= 1.1 * 0.01

    def test_rejects_batch_without_advantages(self):
        policy = categorical_policy(n_actions=2, seed=16)
        batch = self.bandit_batch(policy)
        batch.advantages = None
        with pytest.raises(ValueError):
            trpo.trpo_update(policy, None, batch)

    def test_value_function_fits_returns(self):
        rng = np.random.default_rng(17)
        states = rng.normal(size=(512, 3))
        targets = states @ np.array([1.0, -2.0, 0.5])
        vf = trpo.ValueFunction(3, hidden=(32,), lr=1e-2, epochs=50, seed=3)
        vf.fit(states, targets)
        pred = vf.predict(states)
        mse = float(np.mean((pred - targets) ** 2))
        assert mse < 0.1 * float(np.var(targets))
