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
        "0bbe9be807ac779f78759db54490b16bb7d977113d611ab14a382c7372c74301",
    "run/checkpoint_final.json":
        "e13d1c56cab0e2f777c18717091410b27ed94381ca5beabbfb62072677969b6e",
    "run/checkpoint_step10.json":
        "17843d5975f5931890095c9d53244fb3ae0ae2b9f8f38150a12374b614567b78",
    "run/checkpoint_step20.json":
        "be0f285da5ae8cb05efda71a481eaea75a7ada57aba247608970ebde61239168",
    "run/checkpoint_step30.json":
        "12fce0f22ff7a98ee65ca606c0b199675eb153328f7f65d6a2aef129799e9ff3",
    "tuned/metrics.csv":
        "80f4de05ee9e3faa0d9d1f058f2cf3ddd0146ea2d597b8fe72b4476664a3e2bb",
    "tuned/checkpoint_final.json":
        "1eca38c7bb0a58dcc84cd18792c2414d6e99d9ce7fe0c458f522bde03e8ccdcb",
    "eval/report.json":
        "5a70d5af35b1e939de3e11ed9a3d2ce59e9864ef8866e12cae17592bebe04c48",
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
        "b1b716bb588302f4353966cfb3fffd1dcaa38230d7f14332121b0221e0e585c9",
    "checkpoint_final.json":
        "66bb6201aa586b513d53da2ca28db16965e4a5d59f4de562e173c07ea25efd5c",
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
