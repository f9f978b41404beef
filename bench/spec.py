"""The benchmark's metric registry; ``BENCHMARK.json`` is generated from it.

Run ``python3 bench/run.py --write-spec`` after editing this file.  Every
workload reports every metric: end-to-end metrics on untraced runs
(``--trace 0``), per-layer metrics on traced runs (``--trace 1``).
"""

from __future__ import annotations

import json

from workloads import WORKLOADS

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
RUN_SECONDS = 35

# name, unit, better, bound (the share of the parent's median it may worsen by).
# The timing bounds are wide because whole runs on the 2-core sandbox can sit
# in a slow spell (bench/METRICS.md).  The decision-latency p99 is not bounded
# here: every estimator of it tried spread by 18-35 % across seeds; it is in
# each run's record and, per layer, as actor.deploy_us_p99.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("learner_steps_per_s", "1/s", "higher", 0.25),
    ("deploy_decision_ms_p50", "ms", "lower", 0.25),
    ("eval_decisions_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# End-to-end timings the traced run compares against its own untraced passes.
OVERHEAD_OF = ("setup_s", "learner_steps_per_s", "deploy_decision_ms_p50",
               "eval_decisions_per_s")
PHASES = ("setup", "learn", "deploy", "eval")

PER_LAYER = [
    ("autodiff.backward_calls", "count", "lower"),
    ("autodiff.backward_self_ms", "ms", "lower"),
    ("autodiff.tape_nodes_per_backward", "count", "lower"),
    ("autodiff.matmul_fwd_calls", "count", "lower"),
    ("autodiff.matmul_fwd_self_ms", "ms", "lower"),
    ("generator.forward_calls", "count", "lower"),
    ("generator.forward_rows", "count", "lower"),
    ("generator.forward_self_ms", "ms", "lower"),
    ("generator.sample_hypotheses_self_ms", "ms", "lower"),
    ("generator.generate_self_ms", "ms", "lower"),
    ("generator.generate_us_p50", "us", "lower"),
    ("drift.pipelines_per_step", "count", "lower"),
    ("drift.loss_self_ms", "ms", "lower"),
    ("drift.pool_self_ms", "ms", "lower"),
    ("drift.field_self_ms", "ms", "lower"),
    ("drift.distances_self_ms", "ms", "lower"),
    ("drift.affinity_self_ms", "ms", "lower"),
    ("drift.coefficients_self_ms", "ms", "lower"),
    ("drift.force_self_ms", "ms", "lower"),
    ("drift.rms_self_ms", "ms", "lower"),
    ("drift.fixed_point_loss_self_ms", "ms", "lower"),
    ("training.step_self_ms", "ms", "lower"),
    ("training.adamw_self_ms", "ms", "lower"),
    ("training.ema_self_ms", "ms", "lower"),
    ("training.grad_clip_self_ms", "ms", "lower"),
    ("actor.forward_self_ms", "ms", "lower"),
    ("actor.log_prob_self_ms", "ms", "lower"),
    ("actor.entropy_self_ms", "ms", "lower"),
    ("actor.deploy_self_ms", "ms", "lower"),
    ("actor.deploy_us_p50", "us", "lower"),
    ("actor.deploy_us_p99", "us", "lower"),
    ("ppo.decisions", "count", "higher"),
    ("ppo.minibatches", "count", "higher"),
    ("ppo.collect_self_ms", "ms", "lower"),
    ("ppo.gae_self_ms", "ms", "lower"),
    ("ppo.update_self_ms", "ms", "lower"),
    ("ppo.anchor_self_ms", "ms", "lower"),
    ("ppo.critic_self_ms", "ms", "lower"),
    ("ppo.live_forwards_per_minibatch", "count", "lower"),
    ("ppo.epoch0_ratio_max_dev", "ratio", "lower"),
    ("envs.reset_calls", "count", "lower"),
    ("envs.reset_self_ms", "ms", "lower"),
    ("envs.reset_us_p50", "us", "lower"),
    ("envs.step_prefix_calls", "count", "lower"),
    ("envs.step_prefix_self_ms", "ms", "lower"),
    ("envs.step_prefix_us_p50", "us", "lower"),
    ("envs.micro_steps", "count", "lower"),
    ("envs.synth_self_ms", "ms", "lower"),
    ("checkpoint.save_self_ms", "ms", "lower"),
    ("checkpoint.load_self_ms", "ms", "lower"),
    ("checkpoint.bytes", "bytes", "lower"),
    *((f"trace.overhead_frac.{m}", "ratio", "lower") for m in OVERHEAD_OF),
    *((f"trace.coverage_frac.{p}", "ratio", "higher") for p in PHASES),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> str:
    doc = {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    return json.dumps(doc, indent=2) + "\n"
