"""Golden trajectories: short training runs at a fixed seed must land on
recorded policy parameters. Covered: three GAIfO iterations on the 5x5
gridworld and on point-mass, three expert TRPO iterations and one BCO run on
the gridworld, and three GAIL iterations on point-mass.

The fingerprints (L2 norm of the flat parameters plus a strided sample of
entries) were recorded with float64 numpy 2.4 and OpenBLAS at 2 threads on a
2-CPU x86-64 machine. Each run trains in a child interpreter with
OPENBLAS_NUM_THREADS=2 and hands its parameters back as float.hex strings,
so the verdict does not depend on the thread count of the calling shell
(a child at 1 thread lands exactly on the three gridworld recordings and
within 2.4e-12 of the point-mass ones). Changes to the hot paths must keep
them:

- gridworld bit for bit: its rollouts make the same counter-based draws
  (envs.random_bits), so nothing may differ.
- point-mass within 1e-9 per entry: a batched GEMM row may differ from a
  one-row product in the last bit, and three TRPO steps grow that: the
  code lands 1.23e-12 from the point-mass recording and 1.8e-15 from the
  GAIL one (--deviation below; GRID, EXPERT and BCO read 0.0). Going from
  2 BLAS threads to 1 moves its parameters by up to 2.2e-12. Any change of
  behaviour moves them by orders of magnitude more.

A labelled behaviour change first reports how far each recording moved,
the largest absolute deviation of its norm and sampled entries from the
recorded constants:

    PYTHONPATH=src python tests/test_golden.py --deviation

and then re-records with one command, which prints the five constant blocks
from the same child-interpreter runs:

    PYTHONPATH=src python tests/test_golden.py
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

GRID_NORM = 10.04748006125016
GRID_SAMPLE = [  # flat_params()[::401]
    0.07976293455090322, 0.22550965277001994, -0.16053512762069622,
    -0.09939630577261951, 0.00544468403002498, -0.1653547708051136,
    -0.17975048219138734, -0.04908647424797123, -0.048452022889204,
    -0.14587883985218758, 0.0216185804373064, -0.09369473599890722,
    0.14649134428605223, -0.21163304394855617, 0.09461966089569021,
    0.00969386919667749,
]

POINT_NORM = 8.52070514923742
POINT_SAMPLE = [  # flat_params()[::307]
    0.08954806252916672, -0.001815573685568257, -0.021931045322256218,
    -0.08749264593934625, 0.17762379064401543, 0.13250690141631394,
    0.055031596109934786, 0.01283423377646427, 0.11588346944534098,
    0.02396882460660378, 0.07471936523184526, 0.08876462731618054,
    0.06816061903189792, 0.10100258297968344, 0.184278879084923,
    -0.02871571695509908,
]
POINT_ATOL = 1e-9

EXPERT_NORM = 10.08443651874063
EXPERT_SAMPLE = [  # flat_params()[::401]
    0.0719354980127678, 0.22733853727286202, -0.1592882096234602,
    -0.10131873570716514, -0.0006077672118354046, -0.16374353736209385,
    -0.18024439845074358, -0.05198424283588734, -0.04670683650701262,
    -0.14387138169154315, 0.024857480015488976, -0.09245118200542335,
    0.14595255876365845, -0.21124109789580284, 0.09901745783130206,
    0.03154688240972124,
]

BCO_NORM = 14.938437200003355
BCO_SAMPLE = [  # flat_params()[::401]
    -0.0962817939778953, 0.22740008844651427, -0.15894558970424655,
    -0.09510804571874143, -0.10249848682066404, -0.28342542022786027,
    -0.2988379645634896, 0.07201500045660457, 0.12037065666523082,
    0.10096613462367869, 0.14796259229081202, -0.254155212238188,
    0.010239359292845824, -0.05704080736906788, 0.2443153115865359,
    0.18530234507918958,
]

GAIL_NORM = 8.521931012024423
GAIL_SAMPLE = [  # flat_params()[::307]
    0.09442627325973076, -0.0019525040920656167, -0.022428489473345335,
    -0.08867481430342312, 0.17475572862393207, 0.13282340316731456,
    0.05359274337145402, 0.011124650897876055, 0.11669653196840038,
    0.023705278946761613, 0.07462653598149424, 0.08717157349592253,
    0.06827674142584157, 0.10146461763965402, 0.18363616701248453,
    -0.07444421311408189,
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

GRID_GAIFO = GRID_SETUP + """
config = il.TrainConfig(iterations=3, batch_size=1024, d_steps=5,
                        disc_lr=1e-3, early_stop=False)
policy, _ = il.gaifo_train(env, demos, config, seed=0)
"""

POINT_GAIFO = POINT_SETUP + """
demos = il.record_demonstrations(expert, env, 10, seed=1)
config = il.TrainConfig(iterations=3, batch_size=1024, early_stop=False)
policy, _ = il.gaifo_train(env, demos, config, seed=0)
"""

GRID_EXPERT = GRID_SETUP + """
config = il.TrainConfig(batch_size=1024, early_stop=False)
policy, _ = il.train_expert(env, config, 3, seed=0)
"""

GRID_BCO = GRID_SETUP + """
config = il.TrainConfig(exploration_steps=2000, eval_episodes=5)
policy, _ = il.bco_train(env, demos, config, seed=0)
"""

POINT_GAIL = POINT_SETUP + """
demos = il.imitation.record_demonstrations_with_actions(expert, env, 10, seed=1)
config = il.TrainConfig(iterations=3, batch_size=1024, early_stop=False)
policy, _ = il.gail_train(env, demos, config, seed=0)
"""

# (constant prefix, training code, sample stride) of each recording
RECORDINGS = [("GRID", GRID_GAIFO, 401), ("POINT", POINT_GAIFO, 307),
              ("EXPERT", GRID_EXPERT, 401), ("BCO", GRID_BCO, 401),
              ("GAIL", POINT_GAIL, 307)]


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
    flat = train_in_child(GRID_GAIFO)
    assert flat.size == 6084
    assert np.linalg.norm(flat) == GRID_NORM
    np.testing.assert_array_equal(flat[::401], GRID_SAMPLE)


def test_point_mass_gaifo_within_tolerance():
    flat = train_in_child(POINT_GAIFO)
    assert flat.size == 4612
    assert np.linalg.norm(flat) == pytest.approx(POINT_NORM, rel=0, abs=POINT_ATOL)
    np.testing.assert_allclose(flat[::307], POINT_SAMPLE, rtol=0, atol=POINT_ATOL)


def test_gridworld_expert_bit_identical():
    flat = train_in_child(GRID_EXPERT)
    assert flat.size == 6084
    assert np.linalg.norm(flat) == EXPERT_NORM
    np.testing.assert_array_equal(flat[::401], EXPERT_SAMPLE)


def test_gridworld_bco_bit_identical():
    flat = train_in_child(GRID_BCO)
    assert flat.size == 6084
    assert np.linalg.norm(flat) == BCO_NORM
    np.testing.assert_array_equal(flat[::401], BCO_SAMPLE)


def test_point_mass_gail_within_tolerance():
    flat = train_in_child(POINT_GAIL)
    assert flat.size == 4612
    assert np.linalg.norm(flat) == pytest.approx(GAIL_NORM, rel=0, abs=POINT_ATOL)
    np.testing.assert_allclose(flat[::307], GAIL_SAMPLE, rtol=0, atol=POINT_ATOL)


def recorded_block(prefix, flat, stride):
    """The {prefix}_NORM and {prefix}_SAMPLE constants of one recording."""
    values = [repr(x) for x in flat[::stride].tolist()]
    lines = [f"{prefix}_NORM = {float(np.linalg.norm(flat))!r}",
             f"{prefix}_SAMPLE = [  # flat_params()[::{stride}]"]
    lines += ["    " + ", ".join(values[i:i + 3]) + "," for i in range(0, len(values), 3)]
    return "\n".join(lines + ["]"])


def deviation(prefix, flat, stride):
    """The largest absolute deviation of one recording's norm and sampled
    entries from its {prefix}_NORM and {prefix}_SAMPLE constants."""
    recorded = globals()
    return max(abs(float(np.linalg.norm(flat)) - recorded[f"{prefix}_NORM"]),
               float(np.max(np.abs(flat[::stride] - recorded[f"{prefix}_SAMPLE"]))))


if __name__ == "__main__":
    for prefix, code, stride in RECORDINGS:
        flat = train_in_child(code)
        if "--deviation" in sys.argv[1:]:
            print(f"{prefix}: {deviation(prefix, flat, stride)!r}", flush=True)
        else:
            print(recorded_block(prefix, flat, stride), end="\n\n", flush=True)
