"""Operator entry point: dataset synthesis, Stage-1 training, evaluation and
Stage-2 fine-tuning.  Every run is config-file driven, fully seeded, and
snapshots its resolved configuration into the output directory.

Exit codes: 0 success, 2 config error, 3 numerical abort, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from .actor import GaussianActor
from .config import SEED_KEY, ConfigError, load_config, snapshot_config
from .drift import DriftConfig, DriftConfigError
from .envs import (PointMassEnv, SpecError, load_dataset, mode_coverage,
                   save_dataset, scripted_action, synth_multimodal)
from .generator import ChunkSpec, Generator, executed_prefix
from .ppo import (Critic, FINETUNE_METRICS_HEADER, PPOConfig, collect_rollouts,
                  compute_gae, ppo_update, evaluate_policy)
from .training import (AdamW, NumericalAbort, TrainConfig, TrainConfigError,
                       train, write_metrics_csv)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

log = logging.getLogger("driftkit")


def _setup_logging() -> None:
    level = os.environ.get("DRIFTKIT_LOG", "info").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level not in levels:
        raise ConfigError(f"DRIFTKIT_LOG must be one of {sorted(levels)}")
    logging.basicConfig(level=levels[level], format="%(levelname)s %(message)s")


def _chunk_spec(cfg: dict) -> ChunkSpec:
    return ChunkSpec(horizon=cfg["chunk.horizon"], action_dim=cfg["chunk.action_dim"],
                     history_len=cfg["chunk.history_len"], exec_len=cfg["chunk.exec_len"])


def _require(cfg: dict, key: str) -> str:
    value = cfg.get(key)
    if not value:
        raise ConfigError(f"config key {key!r} is required")
    return value


# -- commands ------------------------------------------------------------


def cmd_synth(cfg: dict, out: Path) -> int:
    dataset = synth_multimodal(
        modes=cfg["synth.modes"], conditions=cfg["synth.conditions"],
        samples_per_condition=cfg["synth.samples_per_condition"],
        noise=cfg["synth.noise"], seed=cfg["synth.seed"],
        spec=_chunk_spec(cfg), gain=cfg["synth.gain"],
        swing_amp=cfg["synth.swing_amp"], swing_len=cfg["synth.swing_len"],
        warmup_max=cfg["synth.warmup_max"])
    save_dataset(dataset, out / "dataset.csv", out / "dataset_meta.json")
    print(f"synth: modes={cfg['synth.modes']} records={len(dataset)} "
          f"seed={cfg['synth.seed']} -> {out / 'dataset.csv'}")
    return EXIT_OK


def cmd_train(cfg: dict, out: Path) -> int:
    data_path = Path(_require(cfg, "data.path"))
    dataset = load_dataset(data_path, data_path.with_name("dataset_meta.json"))
    spec = dataset.spec
    drift_config = DriftConfig(
        hypothesis_count=cfg["drift.hypothesis_count"],
        temperatures=tuple(cfg["drift.temperatures"]),
        negative_count=cfg["drift.negative_count"],
        positive_count=cfg["drift.positive_count"],
        scale_floor=cfg["drift.scale_floor"],
        force_floor=cfg["drift.force_floor"],
        loss_mode=cfg["drift.loss_mode"])
    train_config = TrainConfig(
        batch_size=cfg["train.batch_size"], learning_rate=cfg["train.learning_rate"],
        beta1=cfg["train.beta1"], beta2=cfg["train.beta2"],
        weight_decay=cfg["train.weight_decay"], grad_clip=cfg["train.grad_clip"],
        epochs=cfg["train.epochs"], steps=cfg["train.steps"],
        warmup_steps=cfg["train.warmup_steps"], ema_decay=cfg["train.ema_decay"],
        ema_power=cfg["train.ema_power"], seed=cfg["train.seed"],
        checkpoint_every=cfg["train.checkpoint_every"])
    obs_dim = dataset.metadata["obs_dim"]
    generator = Generator(spec, obs_dim=obs_dim, latent_dim=cfg["model.latent_dim"],
                          hidden_dim=cfg["model.hidden_dim"], seed=cfg["model.init_seed"])
    result = train(dataset, generator, drift_config, train_config)
    write_metrics_csv(out / "metrics.csv", result.metrics)
    for step, arrays in result.checkpoints.items():
        snap = Generator(spec, obs_dim=obs_dim, latent_dim=cfg["model.latent_dim"],
                         hidden_dim=cfg["model.hidden_dim"])
        snap.load_param_arrays(arrays)
        ckpt.save_checkpoint(out / f"checkpoint_step{step}.json", snap)
    ckpt.save_checkpoint(out / "checkpoint_final.json", generator,
                         ema_params=result.ema_params,
                         rng_state=result.rng_state,
                         optimizer_state=result.optimizer_state)
    final_loss = result.metrics[-1]["loss"] if result.metrics else None
    print(f"train: steps={len(result.metrics)} final_loss={final_loss} "
          f"seed={train_config.seed} -> {out / 'checkpoint_final.json'}")
    return EXIT_OK


def _eval_scripted(cfg: dict, spec: ChunkSpec, episodes: int, seed: int) -> dict:
    returns, successes = [], []
    for ep in range(episodes):
        env = PointMassEnv(spec, reward_mode=cfg["eval.reward_mode"])
        env.reset(seed + ep)
        done = False
        total = 0.0
        while not done:
            actions = []
            pos = env.pos.copy()
            for _ in range(spec.horizon):
                a = scripted_action(pos, env.goal)
                actions.append(a)
                pos = pos + a * env.dt
            chunk = np.asarray(actions).reshape(-1)
            prefix = executed_prefix(chunk, spec)
            _, reward, done = env.step_prefix(prefix)
            total += reward
        returns.append(total)
        successes.append(bool(env.succeeded))
    return {"episodes": episodes,
            "mean_return": float(np.mean(returns)) if returns else None,
            "success_rate": float(np.mean(successes)) if successes else None,
            "nfe_violations": None}


def cmd_eval(cfg: dict, out: Path, episodes_override: int | None) -> int:
    episodes = cfg["eval.episodes"] if episodes_override is None else episodes_override
    seed = cfg["eval.seed"]
    if cfg["eval.policy"] == "scripted":
        spec = _chunk_spec(cfg)
        report = _eval_scripted(cfg, spec, episodes, seed)
        report["policy"] = "scripted"
    elif cfg["eval.policy"] == "checkpoint":
        doc = ckpt.load_checkpoint(Path(_require(cfg, "checkpoint.path")))
        actor = ckpt.restore_actor(doc, use_ema=cfg["eval.use_ema"])
        spec = actor.spec
        t0 = time.perf_counter()
        report = evaluate_policy(
            lambda: PointMassEnv(spec, reward_mode=cfg["eval.reward_mode"]),
            actor, episodes, seed)
        elapsed = time.perf_counter() - t0
        decisions = max(1, actor.generator.nfe_count)
        report["policy"] = "checkpoint"
        report["nfe_per_decision"] = 1.0 if report["nfe_violations"] == 0 else None
        report["wall_clock_per_decision_ms"] = 1e3 * elapsed / decisions
        if cfg["eval.dataset"]:
            data_path = Path(cfg["eval.dataset"])
            dataset = load_dataset(data_path, data_path.with_name("dataset_meta.json"))
            rng = np.random.default_rng(seed)

            def policy_fn(obs_hist, samples, rng_):
                obs = np.repeat(obs_hist.reshape(1, -1), samples, axis=0)
                z = rng_.standard_normal((samples, actor.generator.latent_dim))
                chunk, _ = actor.generator.infer(obs, z)
                return chunk

            report["mode_coverage"] = mode_coverage(
                policy_fn, dataset, cfg["eval.coverage_samples"], rng,
                max_conditions=cfg["eval.coverage_conditions"])
    else:
        raise ConfigError(f"eval.policy must be 'checkpoint' or 'scripted'")
    with open(out / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"eval: episodes={episodes} success_rate={report.get('success_rate')} "
          f"mean_return={report.get('mean_return')}")
    return EXIT_OK


def cmd_finetune(cfg: dict, out: Path) -> int:
    doc = ckpt.load_checkpoint(Path(_require(cfg, "checkpoint.path")))
    generator = ckpt.restore_generator(doc, use_ema=cfg["ppo.use_ema"])
    anchor = generator.clone()
    actor = GaussianActor(generator, log_std_init=cfg["ppo.log_std_init"])
    spec = generator.spec
    critic = Critic(spec.history_len * generator.obs_dim, seed=cfg["ppo.critic_seed"])
    ppo_config = PPOConfig(
        clip_eps=cfg["ppo.clip"], value_weight=cfg["ppo.value_weight"],
        entropy_weight=cfg["ppo.entropy_weight"], anchor_weight=cfg["ppo.anchor_weight"],
        gamma=cfg["ppo.gamma"], gae_lambda=cfg["ppo.gae_lambda"],
        rollout_length=cfg["ppo.rollout_length"], update_epochs=cfg["ppo.update_epochs"],
        minibatch_size=cfg["ppo.minibatch_size"], actor_lr=cfg["ppo.actor_lr"],
        critic_lr=cfg["ppo.critic_lr"], iterations=cfg["ppo.iterations"],
        anchor_decay=cfg["ppo.anchor_decay"], seed=cfg["ppo.seed"])
    rng = np.random.default_rng(ppo_config.seed)
    env = PointMassEnv(spec, reward_mode=cfg["ppo.reward_mode"])
    actor_opt = AdamW(actor.parameters().keys(), lr=ppo_config.actor_lr)
    critic_opt = AdamW(critic.params.keys(), lr=ppo_config.critic_lr)
    rows = []
    for iteration in range(1, ppo_config.iterations + 1):
        buffer = collect_rollouts(env, actor, critic, ppo_config.rollout_length, rng)
        compute_gae(buffer, ppo_config.gamma, ppo_config.gae_lambda)
        weight = ppo_config.anchor_weight
        if ppo_config.anchor_decay and ppo_config.iterations > 1:
            weight *= 1.0 - (iteration - 1) / (ppo_config.iterations - 1)
        stats = ppo_update(buffer, actor, critic, anchor, ppo_config, rng,
                            actor_opt=actor_opt, critic_opt=critic_opt,
                            anchor_weight=weight)
        mean_return = (float(np.mean(buffer.episode_returns))
                       if buffer.episode_returns else 0.0)
        rows.append({"iter": iteration, "mean_return": mean_return,
                     "clip_frac": stats.clip_frac, "ratio_mean": stats.ratio_mean,
                     "value_loss": stats.value_loss, "entropy": stats.entropy,
                     "anchor_loss": stats.anchor_loss})
        log.info("iter %d return %.3f clip %.3f", iteration, mean_return,
                 stats.clip_frac)
    write_metrics_csv(out / "metrics.csv", rows, header=FINETUNE_METRICS_HEADER)
    ckpt.save_checkpoint(out / "checkpoint_final.json", generator,
                         actor=actor, critic=critic)
    print(f"finetune: iterations={ppo_config.iterations} seed={ppo_config.seed} "
          f"-> {out / 'checkpoint_final.json'}")
    return EXIT_OK


# -- entry ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="driftkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("synth", "train", "eval", "finetune"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)
        if name == "eval":
            p.add_argument("--episodes", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _setup_logging()
        cfg = load_config(args.config, args.command)
        if args.seed is not None:
            cfg[SEED_KEY[args.command]] = args.seed
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        snapshot_config(cfg, out / "config.json")
        if args.command == "synth":
            return cmd_synth(cfg, out)
        if args.command == "train":
            return cmd_train(cfg, out)
        if args.command == "eval":
            return cmd_eval(cfg, out, args.episodes)
        return cmd_finetune(cfg, out)
    except (ConfigError, DriftConfigError, TrainConfigError, SpecError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        try:
            with open(Path(args.out) / "abort_dump.json", "w") as fh:
                json.dump(exc.dump, fh, indent=2, sort_keys=True)
        except OSError:
            pass
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
