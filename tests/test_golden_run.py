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
they hold for one numpy build on one OpenBLAS kernel class, SkylakeX, like
the forward golden files of ``tests/test_actor.py``; a failure names the class
the process runs.
"""

from __future__ import annotations

import hashlib
import json

from driftkit.cli import main

from .oracles import blas_core

TINY_CHUNK = {"chunk.horizon": 4, "chunk.history_len": 1, "chunk.exec_len": 2}

EXPECTED = {
    "data/dataset.csv":
        "b8866ddd17ade6f62de44799f8a5474eca2660b11fbb2b58f72b2445b7b27720",
    "data/dataset_meta.json":
        "90a78668c77952d92fe281d1f8e685597927649f037a45b206e56e9d5bd61135",
    "run/metrics.csv":
        "bd5eae72b45ad412fac71bcc84c68808cef00239213906b92d87823b3ac8f5dc",
    "run/checkpoint_final.json":
        "5a12376a178941a69ac0cb423ca84cc0f67788c6c17db838dfbabd9ce9cb6a8a",
    "run/checkpoint_step10.json":
        "98f9e260f67bb275633c1232a72f74c9b24f62d87a805b416d7f447d7a61a26b",
    "run/checkpoint_step20.json":
        "915a9628dcc65588295a5083ab46078f349bc90dcb9146b7f678d9e79e767a7d",
    "run/checkpoint_step30.json":
        "5a12376a178941a69ac0cb423ca84cc0f67788c6c17db838dfbabd9ce9cb6a8a",
    "tuned/metrics.csv":
        "4a7000e86d912b449d1a13ba20edde8b66cd8223155f0a8e7ad877e5ecd19758",
    "tuned/checkpoint_final.json":
        "377474672b3fef628b7131873af317612928df2ca6f4c9a3532da35f6c09215c",
    "eval/report.json":
        "9d018ca04e62054282fb742a13e44a506452395205a9f910a04a6d1b724375a0",
}


def recorded_core() -> str:
    """The failure note of a digest test: which kernel class made the digests
    and which one ran."""
    return f"digests recorded on SkylakeX; this process runs {blas_core()}"


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
        "eval.coverage_samples": 8, "eval.coverage_conditions": 4})
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
    assert run_pipeline(tmp_path) == EXPECTED, recorded_core()


EXPECTED_STEP_WISE = {
    "metrics.csv":
        "c80d1d4b75fb5e5011570f27dcf9b7dee4f1a59f91f3a87d0cc05c48fb4bcf3b",
    "checkpoint_final.json":
        "4f14333bdd65021653a291a3842ce5806aefbc82a356cb644911879c5f4aceb0",
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
    assert run_step_wise_train(tmp_path) == EXPECTED_STEP_WISE, recorded_core()
