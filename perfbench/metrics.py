"""Metric names, units and directions, and the per-layer figures of a trace.

`END_TO_END` and `PER_LAYER` are what BENCHMARK.json declares; a test keeps
the two in step. Per-layer figures come from the spans of one traced process
(see tracer.py). Train-phase figures cover the tree under the trainer call;
the set-up figures cover the tree under the benchmark's set-up span.
"""

from tracer import empty_figures, summarize

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("train_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

LAYERS = ("nets", "envs", "trpo", "adversary", "occupancy", "imitation")
SETUP_SPANS = ("imitation.DemonstrationSet.save", "imitation.DemonstrationSet.load",
               "imitation.record_demonstrations", "harness.make_env")

PER_LAYER = [
    ("nets.mlp_forward.b1.calls", "count", "lower"),
    ("nets.mlp_forward.b1.s", "s", "lower"),
    ("nets.mlp_forward.b1.us_per_call", "us", "lower"),
    ("nets.mlp_forward.batch.calls", "count", "lower"),
    ("nets.mlp_forward.batch.rows", "count", "lower"),
    ("nets.mlp_forward.batch.s", "s", "lower"),
    ("nets.mlp_backward.calls", "count", "lower"),
    ("nets.mlp_backward.rows", "count", "lower"),
    ("nets.mlp_backward.s", "s", "lower"),
    ("nets.mlp_jvp.calls", "count", "lower"),
    ("nets.mlp_jvp.rows", "count", "lower"),
    ("nets.mlp_jvp.s", "s", "lower"),
    ("nets.adam_step.calls", "count", "lower"),
    ("nets.adam_step.s", "s", "lower"),
    ("nets.gflops_per_s.b1", "GFLOP/s", "higher"),
    ("nets.gflops_per_s.batch", "GFLOP/s", "higher"),
    ("envs.step.calls", "count", "lower"),
    ("envs.step.s", "s", "lower"),
    ("envs.rollout.episodes", "count", "lower"),
    ("envs.rollout.self_s", "s", "lower"),
    ("envs.rollout.aborted_episodes", "count", "lower"),
    ("trpo.trpo_update.s", "s", "lower"),
    ("trpo.conjugate_gradient.s", "s", "lower"),
    ("trpo.FvpOperator.calls", "count", "lower"),
    ("trpo.FvpOperator.s", "s", "lower"),
    ("trpo.linesearch.s", "s", "lower"),
    ("trpo.ValueFunction.fit.s", "s", "lower"),
    ("trpo.compute_advantages.s", "s", "lower"),
    ("trpo.StochasticPolicy.act.calls", "count", "lower"),
    ("trpo.StochasticPolicy.act.self_s", "s", "lower"),
    ("trpo.backtracks", "count", "lower"),
    ("trpo.accepted_share", "ratio", "higher"),
    ("adversary.disc_update.calls", "count", "lower"),
    ("adversary.disc_update.s", "s", "lower"),
    ("adversary.disc_values.s", "s", "lower"),
    ("occupancy.empirical_occupancy.calls", "count", "lower"),
    ("occupancy.empirical_occupancy.s", "s", "lower"),
    ("occupancy.exact_occupancy.calls", "count", "lower"),
    ("occupancy.exact_occupancy.s", "s", "lower"),
    ("occupancy.occupancy_distance.s", "s", "lower"),
    ("imitation.collect_batch.s", "s", "lower"),
    ("imitation.evaluate.s", "s", "lower"),
    ("imitation.fit_inverse_model.s", "s", "lower"),
    ("imitation.demo_occupancy.s", "s", "lower"),
    ("imitation.self_s", "s", "lower"),
    *[(f"{name}.s", "s", "lower") for name in SETUP_SPANS],
    *[(f"layer.{layer}.{kind}", "s", "lower")
      for layer in LAYERS for kind in ("total_s", "self_s")],
    ("trace.train_s", "s", "lower"),
    ("trace.untraced_train_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
]


def _ratio(num, den, scale=1.0):
    return scale * num / den if den > 0 else 0.0


def layer_figures(spans, train_root, setup_root):
    """Every PER_LAYER metric that one traced process can give by itself
    (all but the trace.* figures, which compare processes)."""
    names, layers = summarize(spans, train_root)
    setup, _ = summarize(spans, setup_root)

    def get(name):
        return names.get(name) or empty_figures()

    m = {}
    fwd = get("nets.mlp_forward")
    batch_s = fwd["self_s"] - fwd["b1_s"]
    m.update({
        "nets.mlp_forward.b1.calls": fwd["b1_calls"],
        "nets.mlp_forward.b1.s": fwd["b1_s"],
        "nets.mlp_forward.b1.us_per_call": _ratio(fwd["b1_s"], fwd["b1_calls"], 1e6),
        "nets.mlp_forward.batch.calls": fwd["calls"] - fwd["b1_calls"],
        "nets.mlp_forward.batch.rows": fwd["rows"] - fwd["b1_calls"],
        "nets.mlp_forward.batch.s": batch_s,
        # computed rate: 2 flops per multiply-add, over self time
        "nets.gflops_per_s.b1": _ratio(2 * fwd["b1_macs"], fwd["b1_s"], 1e-9),
        "nets.gflops_per_s.batch": _ratio(2 * (fwd["macs_rows"] - fwd["b1_macs"]),
                                          batch_s, 1e-9),
    })
    for name in ("nets.mlp_backward", "nets.mlp_jvp"):
        e = get(name)
        m.update({f"{name}.calls": e["calls"], f"{name}.rows": e["rows"],
                  f"{name}.s": e["self_s"]})
    adam = get("nets.adam_step")
    m.update({"nets.adam_step.calls": adam["calls"], "nets.adam_step.s": adam["s"]})

    rollout = get("envs.rollout")
    m.update({
        "envs.step.calls": get("envs.step")["calls"],
        "envs.step.s": get("envs.step")["s"],
        "envs.rollout.episodes": sum(eps for eps, _ in rollout["info"]),
        "envs.rollout.self_s": rollout["self_s"],
        "envs.rollout.aborted_episodes": sum(ab for _, ab in rollout["info"]),
    })

    update = get("trpo.trpo_update")
    act = get("trpo.StochasticPolicy.act")
    m.update({
        "trpo.trpo_update.s": update["s"],
        "trpo.conjugate_gradient.s": get("trpo.conjugate_gradient")["s"],
        "trpo.FvpOperator.calls": get("trpo.FvpOperator")["calls"],
        "trpo.FvpOperator.s": get("trpo.FvpOperator")["s"],
        "trpo.linesearch.s": get("trpo.surrogate_loss")["s"] + get("trpo.mean_kl")["s"],
        "trpo.ValueFunction.fit.s": get("trpo.ValueFunction.fit")["s"],
        "trpo.compute_advantages.s": get("trpo.compute_advantages")["s"],
        "trpo.StochasticPolicy.act.calls": act["calls"],
        "trpo.StochasticPolicy.act.self_s": act["self_s"],
        "trpo.backtracks": sum(b for b, _ in update["info"]),
        "trpo.accepted_share": _ratio(sum(a for _, a in update["info"]), update["calls"]),
    })

    for name in ("adversary.disc_update", "occupancy.empirical_occupancy",
                 "occupancy.exact_occupancy"):
        m.update({f"{name}.calls": get(name)["calls"], f"{name}.s": get(name)["s"]})
    for name in ("adversary.disc_values", "occupancy.occupancy_distance",
                 "imitation.collect_batch", "imitation.evaluate",
                 "imitation.fit_inverse_model", "imitation.demo_occupancy"):
        m[f"{name}.s"] = get(name)["s"]
    trainer = spans[train_root][0]
    m["imitation.self_s"] = get(trainer)["self_s"]
    for name in SETUP_SPANS:
        m[f"{name}.s"] = setup[name]["s"] if name in setup else 0.0
    for layer in LAYERS:
        figures = layers.get(layer, {"total_s": 0.0, "self_s": 0.0})
        m[f"layer.{layer}.total_s"] = figures["total_s"]
        m[f"layer.{layer}.self_s"] = figures["self_s"]
    return m
