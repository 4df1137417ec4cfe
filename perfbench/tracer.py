"""Span tracer that times calls into ifo_lab's public functions from outside.

The library has no timers of its own. `Tracer.installed()` replaces each
traced function at the place its caller looks it up (a module attribute or a
class attribute) with a wrapper that records one span per call:
``[name, parent, start, end, info]``. ``parent`` is the index of the span that
was open when the call began, so the spans of one process form a tree whose
roots are the benchmark's set-up and the trainer call. ``info`` holds a work
count taken from the arguments or the return value (rows of an MLP batch,
episodes of a rollout, the outcome of a TRPO step).

Self time is a span's duration minus the time covered by its children. The
code under test is single-threaded, so children never overlap and that
covered time is the sum of their durations.
"""

import inspect
import time
from contextlib import contextmanager

SETUP_ROOT = "perfbench.setup"


def _forward_info(args, result):
    params, x = args[0], args[1]
    rows = 1 if x.ndim == 1 else x.shape[0]
    return rows, sum(w.size for w in params.weights)


def _cache_info(args, result):
    return args[1]["inputs"][0].shape[0], sum(w.size for w in args[0].weights)


def _rollout_info(args, result):
    return len(result), sum(tr.aborted for tr in result)


def _update_info(args, result):
    return result["backtracks_used"], result["accepted"]


def trace_targets(il):
    """(owner, attribute, span name, info function) for every traced call.

    The owner is where the caller looks the name up. `imitation` binds
    `rollout` and `occupancy_distance` at import, so those are wrapped in
    `imitation`; `_adversarial_train` imports `exact_occupancy` and
    `empirical_occupancy` at call time, so the `occupancy` attributes work.
    """
    nets, envs, trpo = il.nets, il.envs, il.trpo
    adversary, occupancy, imitation, harness = (il.adversary, il.occupancy,
                                                il.imitation, il.harness)
    targets = [
        (nets, "mlp_forward", "nets.mlp_forward", _forward_info),
        (nets, "mlp_backward", "nets.mlp_backward", _cache_info),
        (nets, "mlp_jvp", "nets.mlp_jvp", _cache_info),
        (nets, "adam_step", "nets.adam_step", None),
        (envs, "rollout", "envs.rollout", _rollout_info),
        (imitation, "rollout", "envs.rollout", _rollout_info),
        (trpo.StochasticPolicy, "act", "trpo.StochasticPolicy.act", None),
        (trpo, "trpo_update", "trpo.trpo_update", _update_info),
        (trpo, "conjugate_gradient", "trpo.conjugate_gradient", None),
        (trpo.FvpOperator, "__call__", "trpo.FvpOperator", None),
        (trpo, "surrogate_loss", "trpo.surrogate_loss", None),
        (trpo, "mean_kl", "trpo.mean_kl", None),
        (trpo.ValueFunction, "fit", "trpo.ValueFunction.fit", None),
        (trpo, "compute_advantages", "trpo.compute_advantages", None),
        (adversary, "disc_update", "adversary.disc_update", None),
        (adversary, "disc_values", "adversary.disc_values", None),
        (occupancy, "empirical_occupancy", "occupancy.empirical_occupancy", None),
        (occupancy, "exact_occupancy", "occupancy.exact_occupancy", None),
        (imitation, "occupancy_distance", "occupancy.occupancy_distance", None),
        (imitation, "collect_batch", "imitation.collect_batch", None),
        (imitation, "evaluate", "imitation.evaluate", None),
        (imitation, "fit_inverse_model", "imitation.fit_inverse_model", None),
        (imitation, "demo_occupancy", "imitation.demo_occupancy", None),
        (imitation, "record_demonstrations", "imitation.record_demonstrations", None),
        (imitation.DemonstrationSet, "save", "imitation.DemonstrationSet.save", None),
        (imitation.DemonstrationSet, "load", "imitation.DemonstrationSet.load", None),
        (imitation, "gaifo_train", "imitation.gaifo_train", None),
        (imitation, "bco_train", "imitation.bco_train", None),
        (harness, "make_env", "harness.make_env", None),
    ]
    for cls in (envs.TabularEnv, envs.PointMass, envs.PendulumSwingup):
        targets.append((cls, "step", "envs.step", None))
    return targets


class Tracer:
    """In-memory span recorder for one process (one run id)."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        # the body of span(), inlined: this runs on every traced call
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, result)
            return result

        return traced

    @contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = time.perf_counter()
        try:
            yield
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def installed(self, il, targets=None):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, name, info in (targets or trace_targets(il)):
                original = inspect.getattr_static(owner, attr)
                if isinstance(original, classmethod):
                    wrapped = classmethod(self.wrap(name, original.__func__, info))
                else:
                    wrapped = self.wrap(name, original, info)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("run_id,span,parent,name,start,end\n")
            for i, (name, parent, start, end, _) in enumerate(self.spans):
                fh.write(f"{self.run_id},{i},{parent},{name},{start!r},{end!r}\n")


def self_times(spans):
    """Self time of every span, plus the index of its root span."""
    own = [end - start for _, _, start, end, _ in spans]
    roots = list(range(len(spans)))
    for i, (_, parent, start, end, _) in enumerate(spans):
        if parent >= 0:
            own[parent] -= end - start
            roots[i] = roots[parent]
    return own, roots


def layer_of(name):
    return name.split(".", 1)[0]


def empty_figures():
    return {"calls": 0, "s": 0.0, "self_s": 0.0, "info": [], "rows": 0,
            "macs_rows": 0, "b1_calls": 0, "b1_s": 0.0, "b1_macs": 0}


def summarize(spans, root):
    """Per-name and per-layer figures over the tree under span `root`.

    Returns ({name: figures}, {layer: {"total_s", "self_s"}}). Figures are
    "calls", "s" (summed duration), "self_s" and "info" (the info values);
    MLP spans add "rows", "macs_rows" (rows times multiply-adds per row) and
    the single-row part "b1_calls", "b1_s", "b1_macs".
    """
    own, roots = self_times(spans)
    names, layers = {}, {}
    for i, (name, parent, start, end, info) in enumerate(spans):
        if roots[i] != root:
            continue
        entry = names.setdefault(name, empty_figures())
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += own[i]
        if info is not None:
            entry["info"].append(info)
        if name.startswith("nets.mlp_") and info is not None:
            rows, macs = info
            entry["rows"] += rows
            entry["macs_rows"] += rows * macs
            if rows == 1:
                entry["b1_calls"] += 1
                entry["b1_s"] += own[i]
                entry["b1_macs"] += macs
        layer = layers.setdefault(layer_of(name), {"total_s": 0.0, "self_s": 0.0})
        layer["self_s"] += own[i]
        if parent < 0 or layer_of(spans[parent][0]) != layer_of(name):
            layer["total_s"] += end - start
    return names, layers


def check_trace(spans, root, outer_s, expected, tolerance):
    """Problems that make a traced run fail.

    - an expected span recorded no call under the root;
    - a span nests in a span of the same name (a wrapper installed twice);
    - a self time is negative, or the self times under the root differ from
      the trainer's wall time measured outside the tracer by more than
      `tolerance` of it.
    """
    own, roots = self_times(spans)
    names, _ = summarize(spans, root)
    problems = [f"span {name} recorded no call" for name in expected
                if names.get(name, {}).get("calls", 0) == 0]
    under = [i for i in range(len(spans)) if roots[i] == root]
    for i in under:
        parent = spans[i][1]
        if parent >= 0 and spans[parent][0] == spans[i][0]:
            problems.append(f"span {spans[i][0]} nests in itself")
            break
    if min(own[i] for i in under) < -1e-6:
        problems.append("a span ends after its parent")
    covered = sum(own[i] for i in under)
    if abs(covered - outer_s) > tolerance * outer_s:
        problems.append(f"self times sum to {covered:.4f} s against a traced "
                        f"train_s of {outer_s:.4f} s")
    return problems
