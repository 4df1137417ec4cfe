"""Discriminator loss/gradient oracles and the cost-regularizer conjugacy
machinery, including hand-evaluated values and grid-search cross-checks."""

import numpy as np
import pytest

from ifo_lab import adversary, nets


def make_disc(input_dim=4, seed=0, **kw):
    return adversary.Discriminator(input_dim, seed=seed, **kw)


class TestDiscForward:
    def test_zero_network_gives_half(self):
        d = make_disc()
        d.params.set_flat(np.zeros(d.params.n_params))
        x = adversary.pair_features(np.ones((1, 2)), np.ones((1, 2)))
        vals, _ = adversary.disc_values(d, x)
        assert vals.tolist() == [0.5]

    def test_output_in_open_interval(self):
        d = make_disc()
        s = np.random.default_rng(0).normal(size=(50, 2)) * 30
        vals, _ = adversary.disc_values(d, adversary.pair_features(s, s))
        assert np.all(vals > 0) and np.all(vals < 1)

    def test_matches_sigmoid_of_raw_forward(self):
        d = make_disc(seed=3)
        rng = np.random.default_rng(1)
        s, s_next = rng.normal(size=(1, 2)), rng.normal(size=(1, 2))
        x = np.concatenate([s, s_next], axis=1)
        probe = d.params.copy()
        probe.output_transform = "identity"
        logit, _ = nets.mlp_forward(probe, x)
        expect = float(nets.clamped_sigmoid(logit)[0, 0])
        vals, _ = adversary.disc_values(d, adversary.pair_features(s, s_next))
        assert vals[0] == pytest.approx(expect)

    def test_dim_mismatch_rejected(self):
        d = make_disc(input_dim=4)
        with pytest.raises(ValueError):
            adversary.disc_values(d, adversary.pair_features(np.ones((1, 3)),
                                                             np.ones((1, 3))))


class TestDiscLoss:
    def test_uninformative_discriminator_loss(self):
        d = make_disc()
        d.params.set_flat(np.zeros(d.params.n_params))  # D = 0.5 everywhere
        rng = np.random.default_rng(0)
        imit = rng.normal(size=(6, 4))
        exp = rng.normal(size=(6, 4))
        assert adversary.disc_loss(d, imit, exp) == pytest.approx(2 * np.log(2))

    def test_hand_value_single_pairs(self):
        # evaluate the loss formula independently on single pairs
        d = make_disc()
        rng = np.random.default_rng(5)
        imit = rng.normal(size=(1, 4))
        exp = rng.normal(size=(1, 4))
        di, _ = adversary.disc_values(d, imit)
        de, _ = adversary.disc_values(d, exp)
        expect = -(np.log(di[0]) + np.log(1 - de[0]))
        assert adversary.disc_loss(d, imit, exp) == pytest.approx(float(expect))
        # and the published hand case
        assert -(np.log(0.8) + np.log(0.7)) == pytest.approx(0.5798, abs=1e-4)

    def test_empty_batch_rejected(self):
        d = make_disc()
        with pytest.raises(ValueError):
            adversary.disc_loss(d, np.empty((0, 4)), np.ones((1, 4)))

    def test_loss_nonnegative(self):
        d = make_disc(seed=9)
        rng = np.random.default_rng(2)
        assert adversary.disc_loss(d, rng.normal(size=(8, 4)),
                                   rng.normal(size=(8, 4))) >= 0.0

    def test_gradient_matches_finite_differences(self):
        d = make_disc(seed=4)
        rng = np.random.default_rng(3)
        imit = rng.normal(size=(5, 4))
        exp = rng.normal(size=(5, 4))
        _, flat = adversary.disc_loss_grad(d, imit, exp)

        def f(vec):
            probe = make_disc(seed=4)
            probe.params.set_flat(vec)
            return adversary.disc_loss(probe, imit, exp)

        fd = nets.finite_diff_grad(f, d.params.flatten())
        err = np.abs(flat - fd).max() / max(np.abs(fd).max(), 1e-12)
        assert err < 1e-4


class TestDiscTraining:
    def test_loss_decreases_on_separable_data(self):
        d = make_disc(seed=1, lr=1e-2)
        imit = np.random.default_rng(0).normal(loc=2.0, size=(32, 4))
        exp = np.random.default_rng(1).normal(loc=-2.0, size=(32, 4))
        losses = [adversary.disc_update(d, imit, exp) for _ in range(100)]
        increases = sum(b > a for a, b in zip(losses, losses[1:]))
        assert losses[-1] < losses[0]
        assert increases <= 5  # monotone up to a 5% tolerance

    def test_update_deterministic(self):
        def run():
            d = make_disc(seed=2)
            imit = np.random.default_rng(0).normal(size=(8, 4))
            exp = np.random.default_rng(1).normal(size=(8, 4))
            for _ in range(5):
                adversary.disc_update(d, imit, exp)
            return d.params.flatten()

        np.testing.assert_array_equal(run(), run())


class TestPolicyReward:
    def test_reward_is_negative_log_d(self):
        d = make_disc(seed=7)
        rng = np.random.default_rng(4)
        x = adversary.pair_features(rng.normal(size=(5, 2)), rng.normal(size=(5, 2)))
        dv, _ = adversary.disc_values(d, x)
        np.testing.assert_allclose(adversary.policy_reward(d, x), -np.log(dv), rtol=1e-15)

    def test_hand_values(self):
        assert -np.log(0.5) == pytest.approx(np.log(2))
        assert -np.log(0.1) == pytest.approx(2.302585, abs=1e-6)

    def test_reward_finite_under_extreme_logits(self):
        d = make_disc()
        d.params.set_flat(np.full(d.params.n_params, 50.0))
        r = adversary.policy_reward(d, np.ones((1, 4)) * 100)
        assert r.shape == (1,) and np.all(np.isfinite(r))


class TestGFn:
    def test_hand_value(self):
        assert adversary.g_fn(-np.log(2)) == pytest.approx(2 * np.log(2))

    def test_nonnegative_argument_is_infinite(self):
        assert adversary.g_fn(0.0) == np.inf
        assert adversary.g_fn(1.0) == np.inf

    def test_convexity_spot_check(self):
        rng = np.random.default_rng(5)
        x = -rng.exponential(size=1000)
        y = -rng.exponential(size=1000)
        mid = adversary.g_fn((x + y) / 2)
        avg = (adversary.g_fn(x) + adversary.g_fn(y)) / 2
        assert np.all(mid <= avg + 1e-12)


class TestPsiGa:
    def test_constant_cost_expectation(self):
        rho = np.random.default_rng(6).random((3, 3))
        c = np.full((3, 3), -np.log(2))
        assert adversary.psi_ga(c, rho) == pytest.approx(2 * np.log(2))

    def test_nonnegative_entry_on_support_is_infinite(self):
        rho = np.array([[0.5, 0.5], [0.0, 0.0]])
        c = np.array([[-1.0, 0.0], [-1.0, -1.0]])
        assert adversary.psi_ga(c, rho) == np.inf

    def test_nonnegative_entry_off_support_ignored(self):
        rho = np.array([[1.0, 0.0], [0.0, 0.0]])
        c = np.array([[-1.0, 5.0], [5.0, 5.0]])
        assert np.isfinite(adversary.psi_ga(c, rho))

    def test_two_state_hand_sum(self):
        rho = np.array([[0.4, 0.1], [0.3, 0.2]])
        c = np.array([[-0.5, -1.0], [-2.0, -0.1]])
        expect = sum(rho[i, j] * (-c[i, j] - np.log1p(-np.exp(c[i, j])))
                     for i in range(2) for j in range(2))
        assert adversary.psi_ga(c, rho) == pytest.approx(expect)


class TestConjugateClosedForm:
    def test_symmetric_single_entry(self):
        val = adversary.psi_ga_conjugate_closed(np.array([[1.0]]), np.array([[1.0]]))
        assert val == pytest.approx(-2 * np.log(2))

    def test_one_sided_entry_contributes_zero(self):
        assert adversary.psi_ga_conjugate_closed(
            np.array([[1.0]]), np.array([[0.0]])) == 0.0
        assert adversary.psi_ga_conjugate_closed(
            np.array([[0.0]]), np.array([[1.0]])) == 0.0

    def test_equal_occupancies(self):
        rho = np.random.default_rng(7).random((4, 4))
        val = adversary.psi_ga_conjugate_closed(rho, rho)
        assert val == pytest.approx(-2 * np.log(2) * rho.sum())

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            adversary.psi_ga_conjugate_closed(np.array([[-1.0]]), np.array([[1.0]]))

    def test_matches_grid_search(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            a, b = rng.random((3, 3)), rng.random((3, 3))
            closed = adversary.psi_ga_conjugate_closed(a, b)
            numeric = adversary.psi_ga_conjugate_numeric(a, b, grid_resolution=1e-5)
            assert closed == pytest.approx(numeric, abs=1e-4)

    def test_grid_refinement_monotone(self):
        rng = np.random.default_rng(9)
        a, b = rng.random((2, 2)), rng.random((2, 2))
        coarse = adversary.psi_ga_conjugate_numeric(a, b, grid_resolution=1e-2)
        fine = adversary.psi_ga_conjugate_numeric(a, b, grid_resolution=1e-4)
        assert fine >= coarse - 1e-12


class TestConjugacyDefinition:
    def test_sampled_costs_never_exceed_closed_form(self):
        rng = np.random.default_rng(10)
        a = rng.random((3, 3))
        b = rng.random((3, 3))
        samples = [-rng.exponential(size=(3, 3)) for _ in range(50)]
        report = adversary.conjugacy_definition_check(a, b, samples)
        assert report["bound_violations"] == []
        assert report["best_sampled"] <= report["closed_form"] + 1e-9

    def test_analytic_optimum_recovers_closed_form(self):
        rng = np.random.default_rng(11)
        a = rng.random((3, 3)) + 0.05
        b = rng.random((3, 3)) + 0.05
        a /= a.sum()
        b /= b.sum()
        closed = adversary.psi_ga_conjugate_closed(a, b)
        attained = adversary.conjugacy_objective(adversary.optimal_cost(a, b), a, b)
        assert attained == pytest.approx(closed, abs=1e-6)

    def test_ascent_approaches_closed_form(self):
        rng = np.random.default_rng(12)
        a = rng.random((2, 2)) + 0.1
        b = rng.random((2, 2)) + 0.1
        samples = [-rng.exponential(size=(2, 2)) for _ in range(20)]
        report = adversary.conjugacy_definition_check(a, b, samples)
        assert report["ascent_value"] == pytest.approx(report["closed_form"], abs=1e-3)
        assert report["ascent_value"] <= report["closed_form"] + 1e-9

    def test_equal_occupancies_tend_to_symmetric_value(self):
        rho = np.random.default_rng(13).random((2, 2)) + 0.1
        samples = [np.full((2, 2), -np.log(2))]
        report = adversary.conjugacy_definition_check(rho, rho, samples)
        # normalized equal occupancies: closed form is -2 log 2 (unit mass)
        assert report["closed_form"] == pytest.approx(-2 * np.log(2))
        assert report["best_sampled"] == pytest.approx(-2 * np.log(2))
