"""Byte-identity guard for a fixed end-to-end CLI run.

A tiny synth -> train -> finetune -> eval pipeline runs through ``cli.main``
and the SHA-256 of every deterministic output is compared with digests
recorded once for this configuration:

- the dataset CSV and its metadata;
- the Stage-1 and the Stage-2 ``metrics.csv``;
- every checkpoint (the periodic Stage-1 snapshots, the Stage-1 final and the
  Stage-2 final);
- the eval ``report.json`` without its ``wall_clock_per_decision_ms`` field.

A second, smaller run pins the step-wise loss mode: a multi-temperature
``train`` whose ``metrics.csv`` and final checkpoint are compared with
``EXPECTED_STEP_WISE``.

A refactor that keeps behaviour must leave every digest unchanged.  A change
that moves them on purpose must record the new digests here together with a
justification in ``CHANGES.md``.  The digests pin float64 numpy results, so
they hold for one numpy build on one CPU family, like the forward golden
files of ``tests/test_actor.py``.
"""

from __future__ import annotations

import hashlib
import json

from driftkit.cli import main

TINY_CHUNK = {"chunk.horizon": 4, "chunk.action_dim": 2,
              "chunk.history_len": 1, "chunk.exec_len": 2}

EXPECTED = {
    "data/dataset.csv":
        "b8866ddd17ade6f62de44799f8a5474eca2660b11fbb2b58f72b2445b7b27720",
    "data/dataset_meta.json":
        "90a78668c77952d92fe281d1f8e685597927649f037a45b206e56e9d5bd61135",
    "run/metrics.csv":
        "bd5eae72b45ad412fac71bcc84c68808cef00239213906b92d87823b3ac8f5dc",
    "run/checkpoint_final.json":
        "5b5127afc4d9f82424a766e1c2cdbff1af5f7839b5071115b79cebd15296bf99",
    "run/checkpoint_step10.json":
        "71c301b275605db673a5dfd2abc8f5ae017d832898bfbae119b996a6cc72940d",
    "run/checkpoint_step20.json":
        "d531ea320bf80112055a4150da2c386a565cc8fb9e8ca83c148cac3a86953597",
    "run/checkpoint_step30.json":
        "cbda096ed1527753a9a9bdb5f5a3d7afc225e18e3fafa9608e019e4a51244109",
    "tuned/metrics.csv":
        "4a7000e86d912b449d1a13ba20edde8b66cd8223155f0a8e7ad877e5ecd19758",
    "tuned/checkpoint_final.json":
        "4839714e167be0b7818bd7c9173fbc9be7a02fbed40e82ff4caca9e3b24f40d9",
    "eval/report.json":
        "4b36491c6dd4f9818283a46d6f0734426b90cf5667a3fe44b703c58aa9180599",
}


def _write(path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_pipeline(root) -> dict[str, str]:
    """Run the fixed pipeline under ``root``; return {output name: SHA-256}."""
    data, run, tuned, evald = (root / n for n in ("data", "run", "tuned", "eval"))
    synth = _write(root / "synth.json", {
        "synth.modes": 2, "synth.conditions": 12, "synth.samples_per_condition": 2,
        "synth.seed": 3, **TINY_CHUNK})
    assert main(["synth", "--config", synth, "--out", str(data)]) == 0
    train = _write(root / "train.json", {
        "data.path": str(data / "dataset.csv"), "train.steps": 30,
        "train.checkpoint_every": 10, "train.learning_rate": 3e-3,
        "train.warmup_steps": 5, "train.batch_size": 8, "train.seed": 5,
        "model.latent_dim": 4, "model.hidden_dim": 16,
        "drift.temperatures": [0.05, 0.7]})
    assert main(["train", "--config", train, "--out", str(run)]) == 0
    finetune = _write(root / "finetune.json", {
        "checkpoint.path": str(run / "checkpoint_final.json"),
        "ppo.iterations": 2, "ppo.rollout_length": 16, "ppo.minibatch_size": 8,
        "ppo.update_epochs": 2, "ppo.reward_mode": "dense", "ppo.seed": 11})
    assert main(["finetune", "--config", finetune, "--out", str(tuned)]) == 0
    evaluate = _write(root / "eval.json", {
        "checkpoint.path": str(tuned / "checkpoint_final.json"),
        "eval.episodes": 3, "eval.seed": 1, "eval.dataset": str(data / "dataset.csv"),
        "eval.coverage_samples": 8, "eval.coverage_conditions": 4, **TINY_CHUNK})
    assert main(["eval", "--config", evaluate, "--out", str(evald)]) == 0

    digests = {}
    for path in (data / "dataset.csv", data / "dataset_meta.json",
                 run / "metrics.csv", *sorted(run.glob("checkpoint_*.json")),
                 tuned / "metrics.csv", tuned / "checkpoint_final.json"):
        digests[f"{path.parent.name}/{path.name}"] = _sha(path.read_bytes())
    report = json.loads((evald / "report.json").read_text())
    del report["wall_clock_per_decision_ms"]
    digests["eval/report.json"] = _sha(json.dumps(report, indent=2, sort_keys=True).encode())
    return digests


def test_fixed_pipeline_outputs_match_recorded_digests(tmp_path):
    assert run_pipeline(tmp_path) == EXPECTED


EXPECTED_STEP_WISE = {
    "metrics.csv":
        "c80d1d4b75fb5e5011570f27dcf9b7dee4f1a59f91f3a87d0cc05c48fb4bcf3b",
    "checkpoint_final.json":
        "c22f9fb8bccc2bb617012c4e40f660337ac0f88af06c8c7e96b1f4fa0d69cbf6",
}


def run_step_wise_train(root) -> dict[str, str]:
    """Synthesize the tiny dataset and train on it in step-wise mode with three
    temperatures; return {output name: SHA-256}."""
    data, run = root / "data", root / "run"
    synth = _write(root / "synth.json", {
        "synth.modes": 2, "synth.conditions": 8, "synth.samples_per_condition": 2,
        "synth.seed": 4, **TINY_CHUNK})
    assert main(["synth", "--config", synth, "--out", str(data)]) == 0
    train = _write(root / "train.json", {
        "data.path": str(data / "dataset.csv"), "train.steps": 12,
        "train.learning_rate": 3e-3, "train.warmup_steps": 3, "train.batch_size": 8,
        "train.seed": 6, "model.latent_dim": 4, "model.hidden_dim": 16,
        "drift.loss_mode": "step_wise", "drift.temperatures": [0.02, 0.05, 0.2]})
    assert main(["train", "--config", train, "--out", str(run)]) == 0
    return {name: _sha((run / name).read_bytes()) for name in EXPECTED_STEP_WISE}


def test_step_wise_train_outputs_match_recorded_digests(tmp_path):
    assert run_step_wise_train(tmp_path) == EXPECTED_STEP_WISE
