"""Occupancy machinery: the exact linear-system oracle, hand-derived cases,
empirical estimator consistency, and occupancy distances.

The empirical estimator is checked against the per-transition loops it
replaced, kept below as the oracle: binned masses must match them bit for
bit and in insertion order. The old tabular loops took gamma^t from numpy's
array power, which may differ from the scalar power by one ulp, so tabular
paths are bit-identical with scalar powers and within 1e-14 of the loops
as they were.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifo_lab import envs, imitation, occupancy


def old_bin_index(bins, state):
    lows = np.asarray(bins.lows)
    highs = np.asarray(bins.highs)
    frac = (np.asarray(state, float) - lows) / (highs - lows)
    idx = np.clip((frac * bins.bins).astype(int), 0, bins.bins - 1)
    return tuple(int(i) for i in idx)


def numpy_powers(gamma, n):
    return gamma ** np.arange(n)


def scalar_powers(gamma, n):
    return np.array([gamma**t for t in range(n)], dtype=np.float64)


def old_empirical_occupancy(trajectories, gamma, bins=None, n_states=None,
                            powers=numpy_powers):
    """The per-transition estimator as it was before vectorization."""
    if isinstance(trajectories, np.ndarray):
        E, T1 = trajectories.shape
        weights = powers(gamma, T1 - 1)
        mass = np.zeros((n_states, n_states))
        flat = trajectories[:, :-1] * n_states + trajectories[:, 1:]
        for t in range(T1 - 1):
            mass.ravel()[:] += np.bincount(flat[:, t], minlength=n_states * n_states) * weights[t]
        return occupancy.StateTransitionOccupancy(gamma, mass=mass / E)
    trajectories = [tr for tr in trajectories if not tr.aborted]
    n_eps = len(trajectories)
    if n_states is not None:
        mass = np.zeros((n_states, n_states))
        for tr in trajectories:
            idx = tr.state_indices
            np.add.at(mass, (idx[:-1], idx[1:]), powers(gamma, len(idx) - 1))
        return occupancy.StateTransitionOccupancy(gamma, mass=mass / n_eps)
    mass_map = {}
    for tr in trajectories:
        for t in range(tr.n_steps):
            key = (old_bin_index(bins, tr.states[t]), old_bin_index(bins, tr.states[t + 1]))
            mass_map[key] = mass_map.get(key, 0.0) + gamma**t
    for k in mass_map:
        mass_map[k] /= n_eps
    return occupancy.StateTransitionOccupancy(gamma, mass_map=mass_map, bins=bins)


def old_demo_occupancy(demos, gamma, n_states=None, bins=None, powers=numpy_powers):
    """imitation.demo_occupancy's own loops as they were."""
    if n_states is not None:
        mass = np.zeros((n_states, n_states))
        for tr in demos.trajectories:
            idx = np.argmax(tr, axis=1)
            np.add.at(mass, (idx[:-1], idx[1:]), powers(gamma, len(idx) - 1))
        return occupancy.StateTransitionOccupancy(
            gamma, mass=mass / demos.n_trajectories)
    mass_map = {}
    for tr in demos.trajectories:
        for t in range(len(tr) - 1):
            key = (old_bin_index(bins, tr[t]), old_bin_index(bins, tr[t + 1]))
            mass_map[key] = mass_map.get(key, 0.0) + gamma**t
    for k in mass_map:
        mass_map[k] /= demos.n_trajectories
    return occupancy.StateTransitionOccupancy(gamma, mass_map=mass_map, bins=bins)


@st.composite
def episode_sets(draw):
    """Variable-length episodes (zero-step and aborted ones included) with
    continuous states on, between and outside the bin bounds, and tabular
    indices, plus the BinSpec, n_states and gamma to estimate them with."""
    dim = draw(st.integers(1, 3))
    lows = draw(st.lists(st.floats(-3.0, 0.0), min_size=dim, max_size=dim))
    widths = draw(st.lists(st.floats(0.1, 3.0), min_size=dim, max_size=dim))
    bins = occupancy.BinSpec.from_bounds(lows, np.add(lows, widths), bins=draw(st.integers(1, 5)))
    n_states = draw(st.integers(1, 5))
    trajs = []
    for k in range(draw(st.integers(1, 6))):
        T = draw(st.integers(0, 8))
        states = np.empty((T + 1, dim))
        for i in range(T + 1):
            for j in range(dim):
                states[i, j] = draw(st.sampled_from([bins.lows[j], bins.highs[j]])
                                    | st.floats(bins.lows[j] - 1.0, bins.highs[j] + 1.0))
        aborted = k > 0 and draw(st.booleans())
        if aborted:
            states[-1] = np.nan
        idx = np.array(draw(st.lists(st.integers(0, n_states - 1), min_size=T + 1, max_size=T + 1)))
        trajs.append(envs.Trajectory(states=states, actions=np.zeros(T), rewards=np.zeros(T),
                                     seed=k, state_indices=idx, aborted=aborted))
    return trajs, bins, n_states, draw(st.floats(0.5, 0.999))


def random_mdp(rng, n_states, n_actions):
    P = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    R = rng.normal(size=(n_states, n_actions))
    p0 = rng.dirichlet(np.ones(n_states))
    return envs.TabularMDP(P=P, R=R, p0=p0)


def alternation_mdp():
    """Deterministic two-state cycle s0 -> s1 -> s0, starting at s0."""
    P = np.zeros((2, 1, 2))
    P[0, 0, 1] = 1.0
    P[1, 0, 0] = 1.0
    return envs.TabularMDP(P=P, R=np.zeros((2, 1)), p0=np.array([1.0, 0.0]))


class TestExactOccupancy:
    def test_self_loop_geometric_series(self):
        P = np.ones((1, 1, 1))
        mdp = envs.TabularMDP(P=P, R=np.zeros((1, 1)), p0=np.array([1.0]))
        occ = occupancy.exact_occupancy(mdp, np.ones((1, 1)), 0.9)
        assert occ.mass[0, 0] == pytest.approx(10.0, abs=1e-12)

    def test_two_state_alternation_hand_values(self):
        # d(s0) = 1/(1-g^2), d(s1) = g/(1-g^2); at g = 0.5: 4/3 and 2/3
        occ = occupancy.exact_occupancy(alternation_mdp(), np.ones((2, 1)), 0.5)
        assert occ.mass[0, 1] == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert occ.mass[1, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert occ.mass[0, 0] == 0.0
        assert occ.mass[1, 1] == 0.0

    def test_total_mass_identity_random_mdps(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            mdp = random_mdp(rng, 7, 3)
            table = rng.dirichlet(np.ones(3), size=7)
            gamma = rng.uniform(0.5, 0.99)
            occ = occupancy.exact_occupancy(mdp, table, gamma)
            assert occ.total_mass() == pytest.approx(1.0 / (1.0 - gamma), abs=1e-9)

    def test_rejects_gamma_one(self):
        with pytest.raises(ValueError):
            occupancy.exact_occupancy(alternation_mdp(), np.ones((2, 1)), 1.0)

    def test_rejects_non_stochastic_policy(self):
        with pytest.raises(ValueError):
            occupancy.exact_occupancy(alternation_mdp(), np.full((2, 1), 0.5), 0.9)

    def test_action_relabeling_symmetry(self):
        # two distinct policies inducing the same Markov chain must yield
        # identical occupancies: duplicate each action, split mass across
        # the copies differently
        rng = np.random.default_rng(1)
        base = random_mdp(rng, 5, 2)
        P2 = np.concatenate([base.P, base.P], axis=1)
        R2 = np.concatenate([base.R, base.R], axis=1)
        mdp = envs.TabularMDP(P=P2, R=R2, p0=base.p0)
        pi_a = np.tile(np.array([0.5, 0.5, 0.0, 0.0]), (5, 1))
        pi_b = np.tile(np.array([0.1, 0.2, 0.4, 0.3]), (5, 1))
        occ_a = occupancy.exact_occupancy(mdp, pi_a, 0.9)
        occ_b = occupancy.exact_occupancy(mdp, pi_b, 0.9)
        np.testing.assert_allclose(occ_a.mass, occ_b.mass, atol=1e-12)

    def test_terminal_states_contribute_no_outgoing_mass(self):
        P = np.zeros((2, 1, 2))
        P[0, 0, 1] = 1.0
        P[1, 0, 1] = 1.0
        mdp = envs.TabularMDP(P=P, R=np.zeros((2, 1)), p0=np.array([1.0, 0.0]),
                              terminal=np.array([False, True]))
        occ = occupancy.exact_occupancy(mdp, np.ones((2, 1)), 0.9)
        assert np.all(occ.mass[1] == 0.0)
        assert occ.mass[0, 1] == pytest.approx(1.0)


class TestEmpiricalOccupancy:
    def test_single_one_step_episode(self):
        tr = envs.Trajectory(states=np.eye(2), actions=np.array([0]),
                             rewards=np.zeros(1), seed=0,
                             state_indices=np.array([0, 1]))
        occ = occupancy.empirical_occupancy([tr], 0.7, n_states=2)
        assert occ.mass[0, 1] == pytest.approx(1.0)
        assert occ.total_mass() == pytest.approx(1.0)

    def test_duplicate_episodes_average_to_one(self):
        tr = envs.Trajectory(states=np.eye(2), actions=np.array([0]),
                             rewards=np.zeros(1), seed=0,
                             state_indices=np.array([0, 1]))
        one = occupancy.empirical_occupancy([tr], 0.7, n_states=2)
        two = occupancy.empirical_occupancy([tr, tr], 0.7, n_states=2)
        np.testing.assert_allclose(one.mass, two.mass)

    def test_discount_weighting(self):
        tr = envs.Trajectory(states=np.eye(3), actions=np.zeros(2, int),
                             rewards=np.zeros(2), seed=0,
                             state_indices=np.array([0, 1, 2]))
        occ = occupancy.empirical_occupancy([tr], 0.5, n_states=3)
        assert occ.mass[0, 1] == pytest.approx(1.0)
        assert occ.mass[1, 2] == pytest.approx(0.5)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            occupancy.empirical_occupancy([], 0.9, n_states=2)

    def test_index_array_input_matches_trajectory_input(self):
        arr = np.array([[0, 1, 0], [0, 1, 1]])
        occ_arr = occupancy.empirical_occupancy(arr, 0.9, n_states=2)
        trajs = []
        for row in arr:
            trajs.append(envs.Trajectory(
                states=np.eye(2)[row], actions=np.zeros(2, int),
                rewards=np.zeros(2), seed=0, state_indices=row))
        occ_tr = occupancy.empirical_occupancy(trajs, 0.9, n_states=2)
        np.testing.assert_allclose(occ_arr.mass, occ_tr.mass)

    def test_binned_continuous_occupancy(self):
        bins = occupancy.BinSpec.from_bounds([-1.0], [1.0], bins=4)
        states = np.array([[-0.9], [-0.1], [0.9]])
        tr = envs.Trajectory(states=states, actions=np.zeros(2),
                             rewards=np.zeros(2), seed=0)
        occ = occupancy.empirical_occupancy([tr], 0.5, bins=bins)
        assert occ.mass_map[((0,), (1,))] == pytest.approx(1.0)
        assert occ.mass_map[((1,), (3,))] == pytest.approx(0.5)

    def test_converges_to_exact(self):
        env = envs.gridworld(3, 3, slip_prob=0.3, horizon=60, gamma=0.9)
        table = np.full((9, 4), 0.25)
        exact = occupancy.exact_occupancy(env.mdp, table, 0.9)
        dists = []
        for n in (200, 1000, 5000):
            states = envs.simulate_tabular(env.mdp, table, n, 60, seed=3)
            emp = occupancy.empirical_occupancy(states, 0.9, n_states=9)
            dists.append(occupancy.occupancy_distance(emp, exact))
        assert dists[-1] < 0.05
        assert dists[2] < dists[0]


    def test_out_of_range_trajectory_index_rejected(self):
        tr = envs.Trajectory(states=np.eye(3)[[0, 2]], actions=np.array([0]),
                             rewards=np.zeros(1), seed=0,
                             state_indices=np.array([0, -1]))
        with pytest.raises(ValueError, match=r"state index -1 outside \[0, 3\)"):
            occupancy.empirical_occupancy([tr], 0.9, n_states=3)

    def test_out_of_range_array_index_rejected(self):
        with pytest.raises(ValueError, match=r"state index 3 outside \[0, 3\)"):
            occupancy.empirical_occupancy(np.array([[0, 3]]), 0.9, n_states=3)
        with pytest.raises(ValueError, match=r"state index 7 outside \[0, 3\)"):
            occupancy.empirical_occupancy(np.array([[7, 0], [1, 2]]), 0.9, n_states=3)


class TestEstimatorParity:
    @settings(max_examples=60, deadline=None)
    @given(episode_sets())
    def test_matches_per_transition_loops(self, case):
        trajs, bins, n_states, gamma = case
        live = [tr for tr in trajs if not tr.aborted]

        new = occupancy.empirical_occupancy(trajs, gamma, bins=bins)
        old = old_empirical_occupancy(trajs, gamma, bins=bins)
        assert list(new.mass_map.items()) == list(old.mass_map.items())
        assert new.total_mass() == old.total_mass()
        for tr in live:
            grid = bins.indices(tr.states)
            assert [tuple(row) for row in grid.tolist()] == [old_bin_index(bins, x) for x in tr.states]

        ref_new = occupancy.empirical_occupancy(live[-1:], gamma, bins=bins)
        ref_old = old_empirical_occupancy(live[-1:], gamma, bins=bins)
        if new.total_mass() > 0 and ref_new.total_mass() > 0:
            assert (occupancy.occupancy_distance(new, ref_new)
                    == occupancy.occupancy_distance(old, ref_old))

        demos = imitation.DemonstrationSet("test", len(bins.lows), [tr.states for tr in live], 0, 0.0)
        new = imitation.demo_occupancy(demos, gamma, bins=bins)
        old = old_demo_occupancy(demos, gamma, bins=bins)
        assert list(new.mass_map.items()) == list(old.mass_map.items())

        new = occupancy.empirical_occupancy(trajs, gamma, n_states=n_states)
        np.testing.assert_array_equal(
            new.mass, old_empirical_occupancy(trajs, gamma, n_states=n_states,
                                              powers=scalar_powers).mass)
        np.testing.assert_allclose(
            new.mass, old_empirical_occupancy(trajs, gamma, n_states=n_states).mass,
            rtol=1e-14, atol=0.0)

        one_hot = imitation.DemonstrationSet(
            "test", n_states, [np.eye(n_states)[tr.state_indices] for tr in live], 0, 0.0)
        new = imitation.demo_occupancy(one_hot, gamma, n_states=n_states)
        np.testing.assert_array_equal(
            new.mass, old_demo_occupancy(one_hot, gamma, n_states=n_states,
                                         powers=scalar_powers).mass)
        np.testing.assert_allclose(
            new.mass, old_demo_occupancy(one_hot, gamma, n_states=n_states).mass,
            rtol=1e-14, atol=0.0)

        T1 = len(trajs[0].state_indices)
        arr = np.array([tr.state_indices[:T1] for tr in trajs if len(tr.state_indices) >= T1])
        np.testing.assert_allclose(
            occupancy.empirical_occupancy(arr, gamma, n_states=n_states).mass,
            old_empirical_occupancy(arr, gamma, n_states=n_states).mass,
            rtol=0.0, atol=1e-12)

    def test_grid_too_fine_for_int64_pair_codes(self):
        # 16 bins over 16 dimensions: 2^64 cells per state
        env = envs.PointMass(dim=8, horizon=30)
        bins = occupancy.BinSpec.from_bounds(*env.state_bounds, bins=16)
        trajs = envs.rollout(envs.RandomPolicy(env.spec), env, 5, seed=2)
        new = occupancy.empirical_occupancy(trajs, 0.9, bins=bins)
        old = old_empirical_occupancy(trajs, 0.9, bins=bins)
        assert len(new.mass_map) > 10
        assert list(new.mass_map.items()) == list(old.mass_map.items())

    def test_point_mass_rollouts_match_bit_for_bit(self):
        env = envs.PointMass(horizon=60)
        bins = occupancy.BinSpec.from_bounds(*env.state_bounds, bins=16)
        expert = imitation.record_demonstrations(envs.PointMassController(env), env, 4, 1)
        trajs = envs.rollout(envs.RandomPolicy(env.spec), env, 12, seed=5)
        new_ref = imitation.demo_occupancy(expert, 0.99, bins=bins)
        old_ref = old_demo_occupancy(expert, 0.99, bins=bins)
        new = occupancy.empirical_occupancy(trajs, 0.99, bins=bins)
        old = old_empirical_occupancy(trajs, 0.99, bins=bins)
        assert list(new.mass_map.items()) == list(old.mass_map.items())
        assert list(new_ref.mass_map.items()) == list(old_ref.mass_map.items())
        assert (occupancy.occupancy_distance(new, new_ref)
                == occupancy.occupancy_distance(old, old_ref))


class TestDistance:
    def test_identity_is_zero(self):
        occ = occupancy.exact_occupancy(alternation_mdp(), np.ones((2, 1)), 0.5)
        assert occupancy.occupancy_distance(occ, occ) == 0.0

    def test_disjoint_singletons_tv_one(self):
        a = occupancy.StateTransitionOccupancy(
            0.9, mass=np.array([[1.0, 0.0], [0.0, 0.0]]))
        b = occupancy.StateTransitionOccupancy(
            0.9, mass=np.array([[0.0, 0.0], [0.0, 1.0]]))
        assert occupancy.occupancy_distance(a, b) == pytest.approx(2.0)

    def test_alternation_vs_uniform_hand_value(self):
        # normalized alternation occupancy: 2/3 on (0,1), 1/3 on (1,0);
        # uniform on 4 entries: 1/4 each
        # L1 = |2/3-1/4| + |1/3-1/4| + 2*1/4 = 5/12 + 1/12 + 1/2 = 1
        occ = occupancy.exact_occupancy(alternation_mdp(), np.ones((2, 1)), 0.5)
        uniform = occupancy.StateTransitionOccupancy(
            0.5, mass=np.full((2, 2), 0.25))
        assert occupancy.occupancy_distance(occ, uniform) == pytest.approx(1.0)

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(2)
        a = occupancy.StateTransitionOccupancy(0.9,
                                               mass=rng.random((3, 3)))
        b = occupancy.StateTransitionOccupancy(0.9,
                                               mass=rng.random((3, 3)))
        d_ab = occupancy.occupancy_distance(a, b)
        d_ba = occupancy.occupancy_distance(b, a)
        assert d_ab == pytest.approx(d_ba)
        assert d_ab >= 0.0

    def test_scale_invariance_via_normalization(self):
        rng = np.random.default_rng(3)
        mass = rng.random((3, 3))
        a = occupancy.StateTransitionOccupancy(0.9, mass=mass)
        b = occupancy.StateTransitionOccupancy(0.9, mass=5.0 * mass)
        assert occupancy.occupancy_distance(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_incompatible_binning_rejected(self):
        b1 = occupancy.BinSpec.from_bounds([0.0], [1.0], bins=4)
        b2 = occupancy.BinSpec.from_bounds([0.0], [1.0], bins=8)
        a = occupancy.StateTransitionOccupancy(0.9,
                                               mass_map={((0,), (1,)): 1.0}, bins=b1)
        b = occupancy.StateTransitionOccupancy(0.9,
                                               mass_map={((0,), (1,)): 1.0}, bins=b2)
        with pytest.raises(ValueError):
            occupancy.occupancy_distance(a, b)

    def test_dense_vs_binned_rejected(self):
        a = occupancy.StateTransitionOccupancy(0.9,
                                               mass=np.ones((2, 2)))
        b = occupancy.StateTransitionOccupancy(0.9,
                                               mass_map={((0,), (0,)): 1.0})
        with pytest.raises(ValueError):
            occupancy.occupancy_distance(a, b)
