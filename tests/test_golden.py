"""Golden trajectories: three GAIfO iterations at a fixed seed must land on
recorded policy parameters.

The fingerprints (L2 norm of the flat parameters plus a strided sample of
entries) were recorded with the per-episode rollout loop, float64 numpy 2.4
and OpenBLAS at its default of 2 threads on a 2-CPU x86-64 machine. Changes
to the hot paths must keep them:

- gridworld bit for bit: its rollouts sample from the same Generators with
  the same draws, so nothing may differ. Bit-identical holds at OpenBLAS's
  default of 2 threads only: with OPENBLAS_NUM_THREADS=1 the gridworld
  parameters differ in the last bits, so run this test at 2 threads.
- point-mass within 1e-9 per entry: a batched GEMM row may differ from a
  one-row product in the last bit, and three TRPO steps grow that to about
  2e-14 here. A different BLAS thread count moves the same entries by up to
  6e-14. Any change of behaviour moves them by orders of magnitude more.
"""

import numpy as np
import pytest

import ifo_lab as il
from ifo_lab import envs

GRID_NORM = 10.04726810904815
GRID_SAMPLE = [  # flat_params()[::401]
    0.05817994140860487, 0.22221798232115716, -0.16427248791050092,
    -0.09621253476927268, -0.0004303243127284816, -0.16099218589999068,
    -0.1807723664696491, -0.05056476686272394, -0.04790518427954382,
    -0.14385710566941337, 0.019642595567427108, -0.09267905093262153,
    0.14652880902875937, -0.20952929061948689, 0.09758339464329248,
    -0.06540716555297652,
]

POINT_NORM = 8.514910884029018
POINT_SAMPLE = [  # flat_params()[::307]
    0.08854043934919684, 0.0019699795445174907, -0.024417539306782986,
    -0.08627482442527175, 0.17568194446404756, 0.13245266544680795,
    0.054926627858335283, 0.011620628509777345, 0.11688867089291896,
    0.02366297057232397, 0.07485232510343691, 0.08747639039309503,
    0.06861092629055318, 0.10241797890723836, 0.1848285267945761,
    0.05126496527417719,
]
POINT_ATOL = 1e-9


def test_gridworld_gaifo_bit_identical():
    env = envs.gridworld(5, 5, horizon=50)
    _, table = envs.value_iteration(env.mdp, env.spec.gamma)
    demos = il.record_demonstrations(envs.TabularPolicy(table), env, 10, seed=1)
    config = il.TrainConfig(iterations=3, batch_size=1024, d_steps=5,
                            disc_lr=1e-3, early_stop=False)
    policy, _ = il.gaifo_train(env, demos, config, seed=0)
    flat = policy.flat_params()
    assert flat.size == 6084
    assert np.linalg.norm(flat) == GRID_NORM
    np.testing.assert_array_equal(flat[::401], GRID_SAMPLE)


def test_point_mass_gaifo_within_tolerance():
    env = envs.PointMass()
    demos = il.record_demonstrations(envs.PointMassController(env), env, 10, seed=1)
    config = il.TrainConfig(iterations=3, batch_size=1024, early_stop=False)
    policy, _ = il.gaifo_train(env, demos, config, seed=0)
    flat = policy.flat_params()
    assert flat.size == 4612
    assert np.linalg.norm(flat) == pytest.approx(POINT_NORM, rel=0, abs=POINT_ATOL)
    np.testing.assert_allclose(flat[::307], POINT_SAMPLE, rtol=0, atol=POINT_ATOL)
