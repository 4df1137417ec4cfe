"""What the discriminator optimum looks like, in closed form and by search.

Adversarial imitation trains a classifier D to separate the learner's
state transitions from the demonstrator's. For the logistic loss used
here, the pointwise optimum has a closed form: with learner mass a and
demonstrator mass b on a transition,

    D*(s, s') = a / (a + b),

and the best achievable discriminator objective is the corresponding sum
of a log D* + b log(1 - D*). This script checks that closed form against
brute-force search, then shows a small discriminator network actually
finding it.

Run:  python3 demos/02_discriminator_and_conjugate.py
"""

import numpy as np

from ifo_lab import adversary

rng = np.random.default_rng(0)

# --- closed form vs grid search ------------------------------------------

a = rng.random((3, 3))  # learner occupancy (any nonnegative mass works)
b = rng.random((3, 3))  # demonstrator occupancy

closed = adversary.psi_ga_conjugate_closed(a, b)
numeric = adversary.psi_ga_conjugate_numeric(a, b, grid_resolution=1e-5)
print("optimal discriminator objective")
print(f"  closed form : {closed:.8f}")
print(f"  grid search : {numeric:.8f}")
print(f"  gap         : {abs(closed - numeric):.2e}")

# The same value is the supremum of <a - b, c> - psi_GA(c) over cost
# functions c < 0, where psi_GA is the logistic regularizer. The analytic
# maximizer is c* = log(a / (a + b)); no sampled cost can beat it.

samples = [-rng.exponential(1.0, size=(3, 3)) - 1e-6 for _ in range(200)]
check = adversary.conjugacy_definition_check(a, b, samples)
print("\nsup over sampled costs (both occupancies normalized to unit mass)")
print(f"  closed form        : {check['closed_form']:.8f}")
print(f"  best of 200 samples: {check['best_sampled']:.8f}")
print(f"  analytic optimum   : {check['optimal_cost_value']:.8f}")
print(f"  bound violations   : {len(check['bound_violations'])}")

# --- a trained discriminator approaches D* -------------------------------
#
# Two overlapping Gaussian clouds stand in for learner and demonstrator
# transitions. After some Adam steps the network's output on a probe point
# should approach the density ratio a / (a + b) at that point.

disc = adversary.Discriminator(2, hidden=(32, 32), lr=1e-3, seed=1)
learner = rng.normal(loc=[-0.5, 0.0], scale=0.8, size=(4_000, 2))
demonstrator = rng.normal(loc=[+0.5, 0.0], scale=0.8, size=(4_000, 2))

for step in range(2_000):
    i = rng.integers(len(learner), size=256)
    j = rng.integers(len(demonstrator), size=256)
    loss = adversary.disc_update(disc, learner[i], demonstrator[j])
    if step % 500 == 0:
        print(f"step {step:4d}: loss {loss:.4f}")

# At x the optimal output is N(x; -0.5) / (N(x; -0.5) + N(x; +0.5)).
probes = np.array([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])

def gaussian(x, mu):
    return np.exp(-np.sum((x - mu) ** 2) / (2 * 0.8**2))

print("\nprobe point   network D   optimal D*")
for x in probes:
    pa, pb = gaussian(x, [-0.5, 0.0]), gaussian(x, [+0.5, 0.0])
    d_net, _ = adversary.disc_values(disc, x[None, :])
    print(f"  {x[0]:+.1f}        {float(d_net[0]):.3f}       {pa / (pa + pb):.3f}")
