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
within 1.9e-12 of the point-mass ones). Changes to the hot paths must keep
them:

- gridworld bit for bit: its rollouts make the same counter-based draws
  (envs.random_bits), so nothing may differ.
- point-mass within 1e-9 per entry: a batched GEMM row may differ from a
  one-row product in the last bit, and three TRPO steps grow that. At the
  recorded setting every recording reads 0.0 (--deviation below); going
  from 2 BLAS threads to 1 moves the point-mass one by 1.9e-12 and the
  GAIL one by 4.1e-13. Any change of behaviour moves them by orders of
  magnitude more: a new value baseline moved the four TRPO recordings by
  0.013 to 0.062 (and BCO, which has none, by 0.0).

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

GRID_NORM = 10.054552786530824
GRID_SAMPLE = [  # flat_params()[::401]
    0.08236927632280422, 0.22329171084629532, -0.15826559029462656,
    -0.09906977473138318, 0.007512922084611195, -0.16413961032126348,
    -0.17993523101322959, -0.04972305476364797, -0.04631996020780787,
    -0.1485024453050524, 0.021882651397548865, -0.09272423953382787,
    0.14575858496265923, -0.2112076897108568, 0.0958704053230356,
    0.03014996046970548,
]

POINT_NORM = 8.517429023172937
POINT_SAMPLE = [  # flat_params()[::307]
    0.08449014530614385, -0.0039932578048187724, -0.02084316739774939,
    -0.08693481795985027, 0.17751656334416852, 0.13215503478313395,
    0.05376251387030848, 0.012262902556455672, 0.11584753207823957,
    0.024139575639309224, 0.0744640427399488, 0.08929099570228352,
    0.06784121148932346, 0.10111637958849783, 0.18353976083769238,
    -0.04124210438902176,
]
POINT_ATOL = 1e-9

EXPERT_NORM = 10.084871735807878
EXPERT_SAMPLE = [  # flat_params()[::401]
    0.07154388414760442, 0.22756693551707075, -0.1587906884012909,
    -0.09998385972532058, 0.0022333800978426637, -0.1634651538214553,
    -0.18036273013237172, -0.05213359329850986, -0.04712503649218817,
    -0.14390903035285743, 0.024992385588691175, -0.09177894800585379,
    0.14587307158306934, -0.21175026008481615, 0.09867349913181286,
    0.01735800336557413,
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

GAIL_NORM = 8.51831857303416
GAIL_SAMPLE = [  # flat_params()[::307]
    0.07303207432557768, -0.0007838072541306476, -0.022843295712517947,
    -0.08559235258571403, 0.17485330270043092, 0.1326459154508041,
    0.05319015862170291, 0.011466497520299164, 0.11733407168724777,
    0.023823661124844665, 0.07443515126029583, 0.0864113014322701,
    0.06922606812484301, 0.10059615094677717, 0.18315794930259993,
    -0.012414380189460679,
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
