"""State-transition occupancies on tabular MDPs, exactly and empirically.

A policy's discounted state-transition occupancy rho(s, s') says how much
discounted time the policy spends crossing each edge of the state space.
It is the quantity the adversarial imitation loss actually matches, so it
pays to see it computed three ways before training anything:

  1. by hand, on a two-state MDP small enough to sum the series;
  2. by dynamic programming (exact_occupancy);
  3. by Monte Carlo over rollouts (empirical_occupancy).

Run:  python3 demos/01_occupancy_basics.py
"""

import numpy as np

import ifo_lab as il
from ifo_lab import occupancy
from ifo_lab.envs import simulate_tabular

# --- a two-state MDP we can solve on paper -------------------------------
#
# One action, deterministic alternation: 0 -> 1 -> 0 -> ...  Starting in
# state 0 with gamma = 0.5, state 0 collects mass 1 + 1/4 + 1/16 + ... = 4/3
# and state 1 collects 1/2 + 1/8 + ... = 2/3.

P = np.array([[[0.0, 1.0]],
              [[1.0, 0.0]]])
mdp = il.TabularMDP(P=P, R=np.zeros((2, 1)), p0=np.array([1.0, 0.0]))
table = np.ones((2, 1))  # the only action, always
gamma = 0.5

occ = occupancy.exact_occupancy(mdp, table, gamma)
print("alternation MDP, gamma = 0.5")
print("  state marginals:", occ.mass.sum(axis=1), "(hand: [4/3, 2/3])")
print("  total mass:     ", occ.total_mass(), "(hand: 1/(1-gamma) = 2)")

# The total-mass identity sum(rho) = 1/(1-gamma) holds for every policy on
# every MDP without terminal states; it is the first thing to check when an
# occupancy computation looks suspicious.

# --- exact vs empirical on a gridworld -----------------------------------

env = il.gridworld(width=5, height=5, horizon=60)
rng = np.random.default_rng(0)
uniform = np.full((env.mdp.n_states, env.mdp.n_actions),
                  1.0 / env.mdp.n_actions)
gamma = 0.9

exact = occupancy.exact_occupancy(env.mdp, uniform, gamma)
print("\n5x5 gridworld, uniform random policy, gamma = 0.9")
for n_episodes in (100, 1_000, 10_000):
    states = simulate_tabular(env.mdp, uniform, n_episodes, 60, seed=1)
    estimate = occupancy.empirical_occupancy(states, gamma,
                                             n_states=env.mdp.n_states)
    d = occupancy.occupancy_distance(estimate, exact)
    print(f"  {n_episodes:>6} episodes: normalized L1 to exact = {d:.4f}")

# The estimate converges to the dynamic-programming answer as episodes
# accumulate. Training quality metrics in this package (the
# occupancy_distance column of a TrainReport) are exactly this comparison,
# run between the learner and the demonstrator.
