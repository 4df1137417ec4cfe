"""Golden trajectories: short training runs at a fixed seed must land on
recorded policy parameters. Covered: three GAIfO iterations on the 5x5
gridworld and on point-mass, three expert TRPO iterations and one BCO run on
the gridworld, and three GAIL iterations on point-mass.

The fingerprints (L2 norm of the flat parameters plus a strided sample of
entries) were recorded with float64 numpy 2.4 and OpenBLAS at 2 threads on a
2-CPU x86-64 machine. Each run trains in a child interpreter with
OPENBLAS_NUM_THREADS=2 and hands its parameters back as float.hex strings,
so the verdict does not depend on the thread count of the calling shell
(with 1 thread the gridworld parameters differ in the last bits). Changes to
the hot paths must keep them:

- gridworld bit for bit: its rollouts sample from the same Generators with
  the same draws, so nothing may differ.
- point-mass within 1e-9 per entry: a batched GEMM row may differ from a
  one-row product in the last bit, and three TRPO steps grow that to about
  2e-14 here. A different BLAS thread count moves the same entries by up to
  6e-14. Any change of behaviour moves them by orders of magnitude more.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import ifo_lab

SRC = str(Path(ifo_lab.__file__).resolve().parents[1])

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

EXPERT_NORM = 10.084843481277716
EXPERT_SAMPLE = [  # flat_params()[::401]
    0.07096825563697182, 0.2279248074938068, -0.15924882230038112,
    -0.0973409768112574, -0.0018491657898340647, -0.16356785362572168,
    -0.17999439645344698, -0.05076944063202687, -0.04702351251054184,
    -0.14344292247577586, 0.022673173935762698, -0.0914028618072645,
    0.14643382784625267, -0.21197059879487803, 0.09803860944949176,
    0.03299467779078258,
]

BCO_NORM = 15.704014891857273
BCO_SAMPLE = [  # flat_params()[::401]
    0.2294886435668342, 0.22740008844651427, -0.15894558970424655,
    -0.09510804571874143, -0.05351174727580845, 0.0997423064678733,
    -0.3340579684659752, 0.08505555502573948, 0.12025873634170393,
    -0.023667681516889107, 0.07252250776587064, 0.06968005210445734,
    0.4291639182203019, -0.0012382285450376932, 0.21744391165324548,
    0.15013417288655326,
]

GAIL_NORM = 8.511994295467947
GAIL_SAMPLE = [  # flat_params()[::307]
    0.08570554078271939, 0.0029418861053129757, -0.025018725595014335,
    -0.08631492591430678, 0.17548263322385121, 0.1318904709047137,
    0.0555453208472066, 0.011586033914323945, 0.11700514919589207,
    0.02334659825529143, 0.0743009493638524, 0.08733133675902843,
    0.06843410276466552, 0.10215017244015871, 0.18502165175865962,
    0.05747814978731747,
]

GRID_SETUP = """
env = envs.gridworld(5, 5, horizon=50)
_, table = envs.value_iteration(env.mdp, env.spec.gamma)
demos = il.record_demonstrations(envs.TabularPolicy(table), env, 10, seed=1)
"""

POINT_SETUP = """
env = envs.PointMass()
expert = envs.PointMassController(env)
"""


def train_in_child(code):
    """Run `code` in a fresh interpreter pinned to 2 OpenBLAS threads; the
    code leaves the trained policy in `policy`. Returns its flat parameters
    exactly."""
    script = ("import json\nimport ifo_lab as il\nfrom ifo_lab import envs\n"
              + textwrap.dedent(code)
              + "\nprint(json.dumps([x.hex() for x in policy.flat_params().tolist()]))\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return np.array([float.fromhex(x) for x in json.loads(done.stdout.splitlines()[-1])])


def test_gridworld_gaifo_bit_identical():
    flat = train_in_child(GRID_SETUP + """
config = il.TrainConfig(iterations=3, batch_size=1024, d_steps=5,
                        disc_lr=1e-3, early_stop=False)
policy, _ = il.gaifo_train(env, demos, config, seed=0)
""")
    assert flat.size == 6084
    assert np.linalg.norm(flat) == GRID_NORM
    np.testing.assert_array_equal(flat[::401], GRID_SAMPLE)


def test_point_mass_gaifo_within_tolerance():
    flat = train_in_child(POINT_SETUP + """
demos = il.record_demonstrations(expert, env, 10, seed=1)
config = il.TrainConfig(iterations=3, batch_size=1024, early_stop=False)
policy, _ = il.gaifo_train(env, demos, config, seed=0)
""")
    assert flat.size == 4612
    assert np.linalg.norm(flat) == pytest.approx(POINT_NORM, rel=0, abs=POINT_ATOL)
    np.testing.assert_allclose(flat[::307], POINT_SAMPLE, rtol=0, atol=POINT_ATOL)


def test_gridworld_expert_bit_identical():
    flat = train_in_child(GRID_SETUP + """
config = il.TrainConfig(batch_size=1024, early_stop=False)
policy, _ = il.train_expert(env, config, 3, seed=0)
""")
    assert flat.size == 6084
    assert np.linalg.norm(flat) == EXPERT_NORM
    np.testing.assert_array_equal(flat[::401], EXPERT_SAMPLE)


def test_gridworld_bco_bit_identical():
    flat = train_in_child(GRID_SETUP + """
config = il.TrainConfig(exploration_steps=2000, eval_episodes=5)
policy, _ = il.bco_train(env, demos, config, seed=0)
""")
    assert flat.size == 6084
    assert np.linalg.norm(flat) == BCO_NORM
    np.testing.assert_array_equal(flat[::401], BCO_SAMPLE)


def test_point_mass_gail_within_tolerance():
    flat = train_in_child(POINT_SETUP + """
demos = il.imitation.record_demonstrations_with_actions(expert, env, 10, seed=1)
config = il.TrainConfig(iterations=3, batch_size=1024, early_stop=False)
policy, _ = il.gail_train(env, demos, config, seed=0)
""")
    assert flat.size == 4612
    assert np.linalg.norm(flat) == pytest.approx(GAIL_NORM, rel=0, abs=POINT_ATOL)
    np.testing.assert_allclose(flat[::307], GAIL_SAMPLE, rtol=0, atol=POINT_ATOL)
