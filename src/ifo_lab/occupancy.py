"""State-transition occupancy measures: exact dynamic-programming oracles,
one empirical estimator, and distances between occupancies.

The exact oracle solves the discounted visitation linear system
(I - gamma * P_pi^T) d = p0 and forms rho(s, s') = d(s) * P_pi(s, s').
For MDPs without terminal states the total mass is exactly 1 / (1 - gamma).
Episodic estimators truncate at the horizon H, which biases the total by at
most gamma^H / (1 - gamma); callers pick H and gamma so that this is
negligible before comparing against the oracle.

One empirical estimator serves index arrays, trajectories and decoded
demonstrations in one array pass per call. Continuous states are binned per
dimension by truncating (x - low) / (high - low) * bins and clipping to
[0, bins - 1]. Transition t weighs the Python float gamma**t and masses are
summed in trajectory-major order, bit-identical to adding the transitions
one at a time; binned keys keep the order in which they first appear.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BinSpec:
    """Uniform per-dimension grid for discretizing continuous states."""

    lows: tuple
    highs: tuple
    bins: int = 16

    @classmethod
    def from_bounds(cls, lows, highs, bins=16):
        return cls(tuple(float(x) for x in lows), tuple(float(x) for x in highs), bins)

    def indices(self, states):
        """Per-dimension bin indices of an (N, dim) state array."""
        lows = np.asarray(self.lows)
        highs = np.asarray(self.highs)
        frac = (np.asarray(states, float) - lows) / (highs - lows)
        return np.clip((frac * self.bins).astype(int), 0, self.bins - 1)


class StateTransitionOccupancy:
    """Discounted mass on (s, s') pairs: a dense S x S matrix, or a dict
    keyed by (bin(s), bin(s')) for binned continuous states."""

    def __init__(self, gamma, mass=None, mass_map=None, bins=None):
        self.gamma = gamma
        self.mass = None if mass is None else np.asarray(mass, dtype=np.float64)
        self.mass_map = mass_map
        self.bins = bins
        values = self.mass.ravel() if self.mass is not None else np.array(list((mass_map or {}).values()))
        if values.size and values.min() < -1e-15:
            raise ValueError("occupancy mass must be nonnegative")

    def total_mass(self):
        if self.mass is not None:
            return float(self.mass.sum())
        return float(sum(self.mass_map.values()))

    def normalized(self):
        """Copy scaled to unit total mass."""
        total = self.total_mass()
        if total <= 0:
            raise ValueError("cannot normalize zero-mass occupancy")
        if self.mass is not None:
            return StateTransitionOccupancy(self.gamma, mass=self.mass / total, bins=self.bins)
        return StateTransitionOccupancy(
            self.gamma,
            mass_map={k: v / total for k, v in self.mass_map.items()}, bins=self.bins,
        )


def exact_occupancy(mdp, policy_table, gamma):
    """Exact discounted state-transition occupancy of a tabular policy.

    Terminal states are treated as absorbing and contribute no outgoing
    transition mass, so the 1/(1-gamma) total-mass identity holds only for
    MDPs without terminal states.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1); the system is singular at gamma = 1")
    table = np.asarray(policy_table, dtype=np.float64)
    S = mdp.n_states
    if table.shape != (S, mdp.n_actions):
        raise ValueError(f"policy table shape {table.shape} != ({S}, {mdp.n_actions})")
    if np.any(table < 0) or np.max(np.abs(table.sum(axis=1) - 1.0)) > 1e-9:
        raise ValueError("policy rows must be distributions over actions")
    # P_pi[s, s'] = sum_a pi(a|s) P(s'|s, a)
    P_pi = np.einsum("sa,sat->st", table, mdp.P)
    if mdp.terminal is not None and mdp.terminal.any():
        term = np.where(mdp.terminal)[0]
        P_pi = P_pi.copy()
        P_pi[term] = 0.0
        P_pi[term, term] = 1.0
    d = np.linalg.solve(np.eye(S) - gamma * P_pi.T, mdp.p0)
    rho = d[:, None] * P_pi
    if mdp.terminal is not None and mdp.terminal.any():
        rho[mdp.terminal] = 0.0
    return StateTransitionOccupancy(gamma, mass=rho)


def empirical_occupancy(trajectories, gamma, bins=None, n_states=None):
    """Estimate the occupancy from rollouts; step t weighs gamma^t, averaged
    over episodes.

    trajectories is an (episodes, T+1) integer array of tabular state
    indices (the output of envs.simulate_tabular) or a sequence of
    episodes, each a Trajectory (aborted ones are skipped) or an array of
    its states: (T+1,) indices for a tabular estimate, (T+1, dim) for a
    binned one. Tabular inputs need n_states and give a dense S x S mass;
    continuous inputs need a BinSpec and give a mass_map keyed by
    (bin(s), bin(s')) in order of first appearance.
    """
    if isinstance(trajectories, np.ndarray) and n_states is None:
        raise ValueError("index-array input requires n_states")
    episodes = []
    for tr in trajectories:
        if isinstance(tr, np.ndarray):
            episodes.append(tr)
        elif tr.aborted:
            continue
        elif n_states is None:
            episodes.append(tr.states)
        elif tr.state_indices is None:
            raise ValueError("tabular estimate requires trajectories with state indices")
        else:
            episodes.append(tr.state_indices)
    lengths = np.array([len(ep) for ep in episodes], dtype=np.int64)
    if not episodes or lengths.min() == 0:
        raise ValueError("empty trajectory set")
    if n_states is None and bins is None:
        raise ValueError("continuous estimate requires a BinSpec")

    states = np.concatenate(episodes)
    if n_states is not None:
        bad = (states < 0) | (states >= n_states)
        if bad.any():
            raise ValueError(f"state index {states[bad][0]} outside [0, {n_states})")
        cells, n_cells = states, n_states
    else:
        grid = bins.indices(states)
        n_cells = bins.bins ** grid.shape[1]
        if n_cells * n_cells <= np.iinfo(np.int64).max:
            cells = np.ravel_multi_index(grid.T, (bins.bins,) * grid.shape[1])
        else:  # too many cells for int64 pair codes: number the visited ones
            cells = np.unique(grid, axis=0, return_inverse=True)[1].ravel()
            n_cells = len(states)
    # trajectory-major positions of every s_t in `states`, and their t
    ends = np.cumsum(lengths)
    src = np.delete(np.arange(ends[-1]), ends - 1)
    t = src - np.repeat(ends - lengths, lengths - 1)
    weights = np.array([gamma**k for k in range(lengths.max() - 1)], dtype=np.float64)[t]
    pairs = cells[src] * n_cells + cells[src + 1]
    n_eps = len(episodes)

    if n_states is not None:
        mass = np.bincount(pairs, weights=weights, minlength=n_cells * n_cells)
        return StateTransitionOccupancy(gamma, mass=mass.reshape(n_cells, n_cells) / n_eps)
    _, first, inverse = np.unique(pairs, return_index=True, return_inverse=True)
    mass = np.bincount(inverse, weights=weights, minlength=len(first)) / n_eps
    order = np.argsort(first)
    at = src[first[order]]
    keys = zip(map(tuple, grid[at].tolist()), map(tuple, grid[at + 1].tolist()))
    mass_map = dict(zip(keys, mass[order].tolist()))
    return StateTransitionOccupancy(gamma, mass_map=mass_map, bins=bins)


def occupancy_distance(a, b):
    """L1 distance between occupancies, computed on unit-normalized masses;
    zero iff the normalized mass functions coincide."""
    an, bn = a.normalized(), b.normalized()
    if an.mass is not None and bn.mass is not None:
        if an.mass.shape != bn.mass.shape:
            raise ValueError(f"incompatible supports {an.mass.shape} vs {bn.mass.shape}")
        l1 = float(np.abs(an.mass - bn.mass).sum())
    elif an.mass_map is not None and bn.mass_map is not None:
        if a.bins != b.bins:
            raise ValueError("incompatible binning specs")
        keys = set(an.mass_map) | set(bn.mass_map)
        l1 = float(sum(abs(an.mass_map.get(k, 0.0) - bn.mass_map.get(k, 0.0)) for k in keys))
    else:
        raise ValueError("cannot compare dense and binned occupancies")
    return l1
