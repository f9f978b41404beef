"""Operator entry point: dataset synthesis, Stage-1 training, evaluation and
Stage-2 fine-tuning.  Every run is config-file driven, fully seeded, and
snapshots its resolved configuration into the output directory.

Exit codes: 0 success, 2 config error, 3 numerical abort, 4 I/O error.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from .actor import GaussianActor
from .autodiff import AutodiffError
from .config import SEED_KEY, fields_of, load_config
from .drift import DriftConfig
from .envs import (PointMassEnv, load_dataset, mode_coverage, save_dataset, scripted_chunks,
                   synth_multimodal)
from .generator import ChunkSpec, Generator, SpecError, write_json
from .ppo import FINETUNE_METRICS_HEADER, PPOConfig, evaluate_policy, finetune, run_episodes
from .training import NumericalAbort, TrainConfig, train, write_metrics_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _setup_logging() -> None:
    level = os.environ.get("DRIFTKIT_LOG", "info").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level not in levels:
        raise SpecError(f"DRIFTKIT_LOG must be one of {sorted(levels)}")
    logging.basicConfig(level=levels[level], format="%(levelname)s %(message)s")


def _require(cfg: dict, key: str) -> str:
    value = cfg.get(key)
    if not value:
        raise SpecError(f"config key {key!r} is required")
    return value


def _restore(cfg: dict, ema_key: str) -> Generator:
    """The generator at ``checkpoint.path``, its EMA or live set as ``cfg[ema_key]`` says."""
    path = Path(_require(cfg, "checkpoint.path"))
    doc = ckpt.load_checkpoint(path)
    if cfg[ema_key] and "ema_params" not in doc:
        raise SpecError(f"{ema_key} is true, but checkpoint {path} has no ema_params")
    return ckpt.restore_generator(doc, use_ema=cfg[ema_key])


# -- commands ------------------------------------------------------------


def cmd_synth(cfg: dict, out: Path) -> int:
    dataset = synth_multimodal(**fields_of(cfg, "synth", synth_multimodal),
                               spec=ChunkSpec(**fields_of(cfg, "chunk", ChunkSpec)))
    save_dataset(dataset, out / "dataset.csv", out / "dataset_meta.json")
    print(f"synth: modes={cfg['synth.modes']} records={len(dataset)} "
          f"seed={cfg['synth.seed']} -> {out / 'dataset.csv'}")
    return EXIT_OK


def cmd_train(cfg: dict, out: Path) -> int:
    data_path = Path(_require(cfg, "data.path"))
    dataset = load_dataset(data_path, data_path.with_name("dataset_meta.json"))
    drift_config = DriftConfig(**fields_of(cfg, "drift", DriftConfig))
    train_config = TrainConfig(**fields_of(cfg, "train", TrainConfig))
    generator = Generator(dataset.spec, obs_dim=dataset.metadata["obs_dim"],
                          **fields_of(cfg, "model", Generator))

    def save(name: str, ema) -> None:
        # every Stage-1 file holds the backbone and its EMA, the state a command reads
        ckpt.save_checkpoint(out / name, generator, ema_params=ema)

    result = train(dataset, generator, drift_config, train_config,
                   on_checkpoint=lambda step, ema: save(f"checkpoint_step{step}.json", ema))
    write_metrics_csv(out / "metrics.csv", result.metrics)
    save("checkpoint_final.json", result.ema_params)
    final_loss = result.metrics[-1]["loss"] if result.metrics else None
    print(f"train: steps={len(result.metrics)} final_loss={final_loss} "
          f"seed={train_config.seed} -> {out / 'checkpoint_final.json'}")
    return EXIT_OK


def cmd_eval(cfg: dict, out: Path) -> int:
    episodes, seed = cfg["eval.episodes"], cfg["eval.seed"]
    if seed < 0:
        raise SpecError("eval.seed must be >= 0")
    if cfg["eval.policy"] == "scripted":
        # a longer plan executes the same prefix, so the plan is that prefix long
        h, e = cfg["chunk.history_len"], cfg["chunk.exec_len"]
        spec = ChunkSpec(horizon=max(1, h + e - 1), history_len=h, exec_len=e)
        report = run_episodes(spec, cfg["eval.reward_mode"], episodes, seed,
                              lambda obs, active: scripted_chunks(obs, spec))
        report.update(nfe_violations=None, policy="scripted")
    else:
        actor = GaussianActor(_restore(cfg, "eval.use_ema"))
        coverage = {}
        # a non-finite value in the coverage rows or the episodes is a numerical abort
        stage = "mode_coverage"
        try:
            # coverage runs first, so a bad dataset or coverage count fails before any episode
            if cfg["eval.dataset"]:
                for key in ("eval.coverage_samples", "eval.coverage_conditions"):
                    if cfg[key] < 1:
                        raise SpecError(f"{key} must be >= 1")
                data_path = Path(cfg["eval.dataset"])
                dataset = load_dataset(data_path, data_path.with_name("dataset_meta.json"))
                # (observation shape, chunk shape) of each; coverage does not read exec_len
                have, want = (((spec.history_len, obs_dim), (spec.horizon, spec.action_dim))
                              for spec, obs_dim in ((dataset.spec, dataset.metadata["obs_dim"]),
                                                    (actor.spec, actor.generator.obs_dim)))
                if have != want:
                    raise SpecError(f"eval.dataset {data_path} has observations of shape "
                                    f"{have[0]} and chunks of shape {have[1]}, but the "
                                    f"checkpoint's are {want[0]} and {want[1]}")
                coverage["mode_coverage"] = mode_coverage(
                    actor.generator, dataset, cfg["eval.coverage_samples"],
                    np.random.default_rng(seed), max_conditions=cfg["eval.coverage_conditions"])
            stage = "episodes"
            before = actor.generator.nfe_count
            t0 = time.perf_counter()
            report = evaluate_policy(
                lambda: PointMassEnv(actor.spec, reward_mode=cfg["eval.reward_mode"]),
                actor, episodes, seed)
            elapsed = time.perf_counter() - t0
        except AutodiffError as exc:
            raise NumericalAbort(f"eval {stage}: {exc}", dump={"stage": stage}) from exc
        decisions = max(1, actor.generator.nfe_count - before)
        report.update(coverage, policy="checkpoint")
        report["nfe_per_decision"] = 1.0 if report["nfe_violations"] == 0 else None
        report["wall_clock_per_decision_ms"] = 1e3 * elapsed / decisions
    write_json(out / "report.json", report)
    print(f"eval: episodes={episodes} success_rate={report.get('success_rate')} "
          f"mean_return={report.get('mean_return')}")
    return EXIT_OK


def cmd_finetune(cfg: dict, out: Path) -> int:
    generator = _restore(cfg, "ppo.use_ema")
    ppo_config = PPOConfig(**fields_of(cfg, "ppo", PPOConfig))
    _, _, rows = finetune(generator, ppo_config, **fields_of(cfg, "ppo", finetune))
    write_metrics_csv(out / "metrics.csv", rows, header=FINETUNE_METRICS_HEADER)
    ckpt.save_checkpoint(out / "checkpoint_final.json", generator)
    print(f"finetune: iterations={ppo_config.iterations} seed={ppo_config.seed} "
          f"-> {out / 'checkpoint_final.json'}")
    return EXIT_OK


# -- entry ---------------------------------------------------------------

COMMANDS = {"synth": cmd_synth, "train": cmd_train, "eval": cmd_eval, "finetune": cmd_finetune}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="driftkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
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
        if getattr(args, "episodes", None) is not None:
            cfg["eval.episodes"] = args.episodes
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "config.json", cfg)
        return COMMANDS[args.command](cfg, out)
    except SpecError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        try:
            write_json(Path(args.out) / "abort_dump.json", exc.dump)
        except OSError:
            pass
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
