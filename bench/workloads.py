"""The benchmark's workloads: four timed phases built from driftkit's public
functions, the way the CLI chains them.

Every workload has the same phases, so every run reports the same metrics:

* ``setup``  - dataset synthesis and model init; for ``finetune_deploy`` also a
  short Stage-1 pretrain and a checkpoint save/load/restore round trip.
* ``learn``  - the workload's learner: ``train()`` (Stage-1 workloads) or PPO
  iterations ``collect_rollouts -> compute_gae -> ppo_update`` (finetune).
* ``deploy`` - batch-1 deterministic decisions in a closed loop with one env:
  ``deploy_action`` + ``executed_prefix``, then ``step_prefix``.
* ``eval``   - ``evaluate_policy`` over a fixed episode set.

A phase runs in rounds.  A round is a fixed, seeded job (one set-up, one
``train()`` call, one fine-tuning job of K iterations, whole deployed episodes
up to N decisions, one evaluation), so every round of a run produces the same
outputs; its SHA-256 digest must repeat.
Only the library's inputs derive from the benchmark seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

clock = time.perf_counter

WORKLOADS = {
    "stage1_table":
        "Stage-1 train() at the fixed table (B32 G4 S32, T={0.2}, chunk mode): "
        "one wide drift pipeline per step; tape backward and generator forward dominate",
    "stage1_multiscale_stepwise":
        "Stage-1 train() with T={0.02,0.05,0.2} and step_wise loss: 48 tiny drift "
        "pipelines per step, so drift per-call overhead dominates",
    "finetune_deploy":
        "PPO fine-tuning from a round-tripped checkpoint, sparse reward: envs, actor, "
        "ppo and batch-1 forwards do the learner work; no drift in the timed window",
}

# Share of --seconds given to each timed phase.
PHASE_SHARE = {
    "stage1_table": {"setup": 0.1, "learn": 0.6, "deploy": 0.15, "eval": 0.15},
    "stage1_multiscale_stepwise": {"setup": 0.1, "learn": 0.6, "deploy": 0.15, "eval": 0.15},
    "finetune_deploy": {"setup": 0.15, "learn": 0.45, "deploy": 0.2, "eval": 0.2},
}

PROFILES = {
    # The sizes every reported number is measured at.
    "full": {
        "conditions": 200, "samples_per_condition": 2,
        "round_steps": {"stage1_table": 50, "stage1_multiscale_stepwise": 15},
        "pretrain_steps": 100, "ppo_iterations": 2, "ppo_overrides": {},
        "deploy_decisions": 200, "eval_episodes": 20,
    },
    # Small enough for the self-test; exercises every code path.
    "tiny": {
        "conditions": 12, "samples_per_condition": 2,
        "round_steps": {"stage1_table": 4, "stage1_multiscale_stepwise": 3},
        "pretrain_steps": 3, "ppo_iterations": 2,
        "ppo_overrides": {"rollout_length": 16, "minibatch_size": 8, "update_epochs": 2},
        "deploy_decisions": 20, "eval_episodes": 2,
    },
}


@dataclass
class RoundResult:
    """What one round did: its timings, its output digest and its checks."""

    digest: str
    attempted: int
    failed: int
    seconds: float = 0.0
    ops: int = 0
    samples_ms: list[float] = field(default_factory=list)
    phases_ms: dict[str, list[float]] = field(default_factory=dict)
    notes: dict = field(default_factory=dict)


def derive_seeds(seed: int) -> dict[str, int]:
    """Independent library seeds from the one benchmark seed."""
    names = ("synth", "init", "train", "ppo", "critic", "deploy", "eval")
    state = np.random.SeedSequence(seed).generate_state(len(names))
    return {n: int(v) for n, v in zip(names, state)}


def _digest(*chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else str(c).encode())
    return h.hexdigest()


def _arrays_digest(arrays: dict) -> str:
    return _digest(*(name.encode() + np.ascontiguousarray(arrays[name]).tobytes()
                     for name in sorted(arrays)))


def _rows_digest(rows: list[dict], header) -> str:
    return _digest(*(",".join(repr(r[k]) for k in header) + "\n" for r in rows))


class Workload:
    """One workload's set-up and round functions over the imported driftkit."""

    def __init__(self, dk, name: str, seed: int, profile: dict, work_dir):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.dk = dk
        self.name = name
        self.seeds = derive_seeds(seed)
        self.profile = profile
        self.work_dir = work_dir
        self.state: dict = {}

    # -- set-up -------------------------------------------------------------

    def setup(self) -> RoundResult:
        """Build the workload's inputs.

        The first set-up's state is kept; later ones only repeat the timing
        and the digest, so they do not replace a trained actor.
        """
        dk, p, s = self.dk, self.profile, self.seeds
        t0 = clock()
        dataset = dk.envs.synth_multimodal(
            modes=2, conditions=p["conditions"],
            samples_per_condition=p["samples_per_condition"], seed=s["synth"])
        generator = self._new_generator(dataset)
        digests = [_arrays_digest({"obs": dataset.observations, "chunks": dataset.chunks})]
        doc = None
        if self.name == "finetune_deploy":
            result = dk.training.train(
                dataset, generator, dk.drift.DriftConfig(),
                dk.training.TrainConfig(steps=p["pretrain_steps"], seed=s["train"]))
            path = self.work_dir / f"pretrain-checkpoint-{os.getpid()}.json"
            dk.checkpoint.save_checkpoint(
                path, generator, ema_params=result.ema_params,
                rng_state=result.rng_state, optimizer_state=result.optimizer_state)
            doc = dk.checkpoint.load_checkpoint(path)
            generator = dk.checkpoint.restore_generator(doc, use_ema=True)
            digests.append(_digest(path.read_bytes()))
            path.unlink()
        elapsed = clock() - t0
        if not self.state:
            self.state = {"dataset": dataset, "doc": doc,
                          "actor": dk.actor.GaussianActor(generator)}
        return RoundResult(digest=_digest(*digests), attempted=0, failed=0,
                           seconds=elapsed, ops=1)

    def _new_generator(self, dataset):
        return self.dk.generator.Generator(
            dataset.spec, obs_dim=dataset.metadata["obs_dim"], latent_dim=8,
            hidden_dim=64, seed=self.seeds["init"])

    # -- learn --------------------------------------------------------------

    def learn_round(self) -> RoundResult:
        if self.name == "finetune_deploy":
            return self._ppo_round()
        return self._stage1_round()

    def _stage1_round(self) -> RoundResult:
        dk = self.dk
        steps = self.profile["round_steps"][self.name]
        if self.name == "stage1_table":
            drift_config = dk.drift.DriftConfig()
        else:
            drift_config = dk.drift.DriftConfig(
                temperatures=dk.drift.MULTISCALE_TEMPERATURES, loss_mode="step_wise")
        config = dk.training.TrainConfig(steps=steps, seed=self.seeds["train"])
        generator = self._new_generator(self.state["dataset"])
        try:
            t0 = clock()
            result = dk.training.train(self.state["dataset"], generator, drift_config, config)
            seconds = clock() - t0
        except (ArithmeticError, ValueError, RuntimeError) as exc:
            return RoundResult(digest=f"error: {exc!r}", attempted=steps, failed=steps)
        rows = result.metrics
        ok = len(rows) == steps and all(
            math.isfinite(r["loss"]) and math.isfinite(r["grad_norm"]) for r in rows)
        self.state["actor"] = dk.actor.GaussianActor(generator)
        digest = _digest(_rows_digest(rows, dk.training.METRICS_HEADER),
                         _arrays_digest(generator.param_arrays()),
                         _arrays_digest(result.ema_params))
        return RoundResult(digest=digest, attempted=steps, failed=0 if ok else steps,
                           seconds=seconds, ops=steps)

    def _ppo_round(self) -> RoundResult:
        """One fine-tuning job of K iterations, chained as ``cli.cmd_finetune`` does."""
        dk = self.dk
        defaults = {k: v[1] for k, v in dk.config.FINETUNE_KEYS.items()}
        generator = dk.checkpoint.restore_generator(self.state["doc"],
                                                    use_ema=defaults["ppo.use_ema"])
        anchor = generator.clone()
        actor = dk.actor.GaussianActor(generator, log_std_init=defaults["ppo.log_std_init"])
        spec = generator.spec
        critic = dk.ppo.Critic(spec.history_len * generator.obs_dim,
                               seed=self.seeds["critic"])
        config = dk.ppo.PPOConfig(iterations=self.profile["ppo_iterations"],
                                  seed=self.seeds["ppo"], **self.profile["ppo_overrides"])
        rng = np.random.default_rng(config.seed)
        env = dk.envs.PointMassEnv(spec, reward_mode=defaults["ppo.reward_mode"])
        actor_opt = dk.training.AdamW(actor.parameters().keys(), lr=config.actor_lr)
        critic_opt = dk.training.AdamW(critic.params.keys(), lr=config.critic_lr)
        ppo = dk.ppo
        rows, collect_ms, update_ms = [], [], []
        failed, max_dev, seconds = 0, 0.0, 0.0
        for iteration in range(1, config.iterations + 1):
            try:
                t0 = clock()
                buffer = ppo.collect_rollouts(env, actor, critic, config.rollout_length, rng)
                t1 = clock()
                ppo.compute_gae(buffer, config.gamma, config.gae_lambda)
                stats = ppo.ppo_update(buffer, actor, critic, anchor, config, rng,
                                       actor_opt=actor_opt, critic_opt=critic_opt,
                                       anchor_weight=config.anchor_weight)
                t2 = clock()
            except (ArithmeticError, ValueError, RuntimeError) as exc:
                failed += config.iterations - iteration + 1
                rows.append({"error": repr(exc)})
                break
            seconds += t2 - t0
            collect_ms.append(1e3 * (t1 - t0))
            update_ms.append(1e3 * (t2 - t1))
            ratios = stats.first_epoch_ratios
            dev = float(np.max(np.abs(ratios - 1.0))) if ratios is not None else math.inf
            max_dev = max(max_dev, dev)
            row = {"iter": iteration,
                   "mean_return": (float(np.mean(buffer.episode_returns))
                                   if buffer.episode_returns else 0.0),
                   "clip_frac": stats.clip_frac, "ratio_mean": stats.ratio_mean,
                   "value_loss": stats.value_loss, "entropy": stats.entropy,
                   "anchor_loss": stats.anchor_loss}
            rows.append(row)
            finite = all(math.isfinite(row[k]) for k in dk.ppo.FINETUNE_METRICS_HEADER)
            if not (finite and dev == 0.0 and len(buffer) == config.rollout_length):
                failed += 1
        self.state["actor"] = actor
        digest = _digest(*(json.dumps(r, sort_keys=True) for r in rows),
                         _arrays_digest({k: v.data for k, v in actor.parameters().items()}),
                         _arrays_digest(critic.param_arrays()))
        done = len(collect_ms)
        return RoundResult(digest=digest, attempted=config.iterations, failed=failed,
                           seconds=seconds, ops=done,
                           phases_ms={"collect": collect_ms, "update": update_ms},
                           notes={"epoch0_ratio_max_dev": max_dev})

    # -- deploy -------------------------------------------------------------

    def deploy_round(self) -> RoundResult:
        """Closed loop, one client: each decision waits for the env's next observation."""
        dk = self.dk
        actor = self.state["actor"]
        generator, spec = actor.generator, actor.spec
        executed_prefix = dk.generator.executed_prefix
        seed = self.seeds["deploy"]
        rng = np.random.default_rng(seed)
        h = hashlib.sha256()
        latencies, failed, episode = [], 0, 0
        while len(latencies) < self.profile["deploy_decisions"]:
            env = dk.envs.PointMassEnv(spec, reward_mode="sparse")
            obs = env.reset(seed + episode)
            done = False
            while not done:
                z = rng.standard_normal(generator.latent_dim)
                before = generator.nfe_count
                t0 = clock()
                chunk = actor.deploy_action(obs, z)
                prefix = executed_prefix(chunk, spec)
                t1 = clock()
                latencies.append(1e3 * (t1 - t0))
                if (generator.nfe_count - before != 1
                        or prefix.shape != (spec.exec_len, spec.action_dim)
                        or not np.all(np.isfinite(prefix))):
                    failed += 1
                h.update(prefix.tobytes())
                obs, reward, done = env.step_prefix(prefix)
                h.update(repr(reward).encode())
            episode += 1
        return RoundResult(digest=h.hexdigest(), attempted=len(latencies), failed=failed,
                           seconds=sum(latencies) / 1e3, ops=len(latencies),
                           samples_ms=latencies)

    # -- eval ---------------------------------------------------------------

    def eval_round(self) -> RoundResult:
        dk = self.dk
        actor = self.state["actor"]
        spec = actor.spec
        generator = actor.generator
        before = generator.nfe_count
        t0 = clock()
        report = dk.ppo.evaluate_policy(
            lambda: dk.envs.PointMassEnv(spec, reward_mode="sparse"),
            actor, self.profile["eval_episodes"], self.seeds["eval"])
        seconds = clock() - t0
        decisions = generator.nfe_count - before
        failed = report["nfe_violations"]
        if decisions < 1:
            decisions, failed = 1, 1
        return RoundResult(digest=_digest(json.dumps(report, sort_keys=True)),
                           attempted=decisions, failed=failed, seconds=seconds,
                           ops=decisions)
