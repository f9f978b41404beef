"""End-to-end CLI runs: file outputs, exit codes, determinism, config rejection."""

from __future__ import annotations

import importlib
import json
import pkgutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import driftkit
from driftkit import cli
from driftkit.actor import GaussianActor
from driftkit.checkpoint import load_checkpoint, restore_generator, save_checkpoint
from driftkit.autodiff import AutodiffError
from driftkit.cli import EXIT_CONFIG, EXIT_NUMERIC, main
from driftkit.config import run_keys
from driftkit.envs import PointMassEnv, load_dataset
from driftkit.generator import ChunkSpec, Generator, SpecError
from driftkit.ppo import evaluate_policy
from driftkit.training import NumericalAbort

TINY_CHUNK = {"chunk.horizon": 4, "chunk.history_len": 1, "chunk.exec_len": 2}


def write_config(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


def synth_dir(tmp_path, name="data", conditions=12, modes=2):
    cfg = write_config(tmp_path / f"{name}.json", {
        "synth.modes": modes, "synth.conditions": conditions,
        "synth.samples_per_condition": 2, "synth.seed": 3, **TINY_CHUNK})
    out = tmp_path / name
    assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
    return out


def train_dir(tmp_path, data_dir, name="run", steps=6, extra=None):
    payload = {"data.path": str(data_dir / "dataset.csv"), "train.steps": steps,
               "train.seed": 5, "model.latent_dim": 4, "model.hidden_dim": 16,
               "drift.temperatures": [0.7]}
    payload.update(extra or {})
    cfg = write_config(tmp_path / f"{name}.json", payload)
    out = tmp_path / name
    code = main(["train", "--config", cfg, "--out", str(out)])
    return code, out


def test_synth_writes_parseable_files(tmp_path):
    out = synth_dir(tmp_path)
    ds = load_dataset(out / "dataset.csv", out / "dataset_meta.json")
    assert len(ds) == 24
    assert ds.metadata["modes"] == 2
    assert len(ds.metadata["mode_signs"]) == 2
    snapshot = json.loads((out / "config.json").read_text())
    assert snapshot["synth.modes"] == 2


def test_synth_same_config_produces_identical_files(tmp_path):
    a = synth_dir(tmp_path, "a")
    b = synth_dir(tmp_path, "b")
    assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()
    assert (a / "dataset_meta.json").read_bytes() == (b / "dataset_meta.json").read_bytes()


def test_unknown_config_key_rejected_with_exit_2(tmp_path):
    cfg = write_config(tmp_path / "bad.json", {"synth.modez": 2})
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_removed_pool_size_key_rejected_with_exit_2(tmp_path, capsys):
    data = synth_dir(tmp_path)
    code, _ = train_dir(tmp_path, data, steps=1, extra={"drift.negative_count": 0})
    assert code == 2
    assert "unknown config keys for 'train': ['drift.negative_count']" in capsys.readouterr().err


def test_numerical_blow_up_exits_3_with_abort_dump(tmp_path, capsys):
    data = synth_dir(tmp_path)
    code, out = train_dir(tmp_path, data, extra={"train.learning_rate": 1e300})
    assert code == 3
    assert "numerical abort: step 2" in capsys.readouterr().err
    text = (out / "abort_dump.json").read_text()
    # written like every other indented file, with a final newline
    assert text.endswith("}\n")
    dump = json.loads(text)
    assert dump["step"] == 2
    assert sorted(dump["minibatch_indices"]) == list(range(24))
    assert not (out / "checkpoint_final.json").exists()


def test_blow_up_keeps_the_checkpoints_taken_before_it(tmp_path, capsys):
    data = synth_dir(tmp_path)
    code, out = train_dir(tmp_path, data, extra={"train.learning_rate": 1e300,
                                                 "train.checkpoint_every": 1})
    assert code == 3
    assert "numerical abort: step 2" in capsys.readouterr().err
    assert [p.name for p in out.glob("checkpoint_*")] == ["checkpoint_step1.json"]
    # the snapshot holds step 1's parameters, as a run that stops there ends with
    code, one = train_dir(tmp_path, data, name="one", steps=1,
                          extra={"train.learning_rate": 1e300})
    assert code == 0
    got = load_checkpoint(out / "checkpoint_step1.json")["params"]
    want = load_checkpoint(one / "checkpoint_final.json")["params"]
    assert got.keys() == want.keys()
    assert all(np.array_equal(got[name], want[name]) for name in got)


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    return synth_dir(tmp_path_factory.mktemp("data"))


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory, tiny_data):
    tmp = tmp_path_factory.mktemp("ckpt")
    _, run = train_dir(tmp, tiny_data, steps=2)
    return str(run / "checkpoint_final.json")


# (command, settings, the message printed after "config error: ")
BAD_SETTINGS = [
    ("finetune", {"ppo.clip": 1.5}, "clip must lie in (0, 1)"),
    ("finetune", {"ppo.gamma": 0}, "gamma must lie in (0, 1]"),
    ("finetune", {"ppo.minibatch_size": 0}, "minibatch_size must be positive"),
    ("finetune", {"ppo.iterations": -3},
     "rollout_length, update_epochs and iterations must be >= 0"),
    ("finetune", {"ppo.reward_mode": "bogus"}, "unknown reward mode 'bogus'"),
    ("eval", {"eval.reward_mode": "bogus"}, "unknown reward mode 'bogus'"),
    ("eval", {"eval.policy": "scripted", "eval.reward_mode": "bogus"},
     "unknown reward mode 'bogus'"),
    # the coverage counts' one check is cmd_eval's, which names the key
    ("eval", {"eval.episodes": 1, "eval.dataset": None, "eval.coverage_conditions": 0},
     "eval.coverage_conditions must be >= 1"),
    ("eval", {"eval.episodes": 1, "eval.dataset": None, "eval.coverage_samples": 0},
     "eval.coverage_samples must be >= 1"),
    ("train", {"data.path": None, "train.checkpoint_every": -5},
     "checkpoint_every must be >= 0"),
    # a negative warm-up, noise or swing length once ran as 0 and was recorded as given
    ("train", {"data.path": None, "train.warmup_steps": -1}, "warmup_steps must be >= 0"),
    ("synth", {"synth.noise": -1.0}, "noise and swing_len must be >= 0"),
    ("synth", {"synth.swing_len": -1}, "noise and swing_len must be >= 0"),
    ("synth", {"synth.conditions": 0}, "modes, conditions and samples_per_condition must be >= 1"),
    ("synth", {"synth.samples_per_condition": 0},
     "modes, conditions and samples_per_condition must be >= 1"),
    # point-mass actions are planar, so no run sets the action dimension
    ("synth", {"chunk.action_dim": 3}, "unknown config keys for 'synth': ['chunk.action_dim']"),
    # a negative seed is rejected by the seed's owner, before numpy's seeding
    ("synth", {"synth.seed": -1}, "seed and warmup_max must be >= 0"),
    ("train", {"data.path": None, "train.seed": -1}, "seed must be >= 0"),
    ("train", {"data.path": None, "model.init_seed": -1}, "generator init seed must be >= 0"),
    ("finetune", {"ppo.seed": -1}, "seed must be >= 0"),
    ("finetune", {"ppo.critic_seed": -1}, "critic_seed must be >= 0"),
    ("eval", {"eval.seed": -1}, "eval.seed must be >= 0"),
    ("eval", {"eval.policy": "scripted", "eval.seed": -1}, "eval.seed must be >= 0"),
    ("eval", {"eval.policy": "ema"}, "eval.policy must be 'checkpoint' or 'scripted', got 'ema'"),
    ("synth", {"synth.warmup_max": -1}, "seed and warmup_max must be >= 0"),
    # found by the settings property below: the approach speed overflowed
    ("synth", {"synth.gain": 1e308}, "gain must lie in (0, 1e+06]"),
    ("synth", {"synth.gain": -1e308}, "gain must lie in (0, 1e+06]"),
    ("train", {"data.path": None, "train.ema_power": -1e308}, "ema_power must be finite and >= 0"),
    # JSON's NaN and Infinity never reach a float setting
    ("train", {"data.path": None, "train.grad_clip": float("nan")},
     "config key 'train.grad_clip' expects a finite float, got nan"),
    ("finetune", {"ppo.log_std_init": float("nan")},
     "config key 'ppo.log_std_init' expects a finite float, got nan"),
    ("finetune", {"ppo.log_std_init": float("inf")},
     "config key 'ppo.log_std_init' expects a finite float, got inf"),
    ("finetune", {"ppo.actor_lr": -float("inf")},
     "config key 'ppo.actor_lr' expects a finite float, got -inf"),
    ("train", {"data.path": None, "train.learning_rate": 10**400},
     f"config key 'train.learning_rate' expects a finite float, got {10**400}"),
    # an item of a float list is read as a float setting, named by its index
    ("train", {"data.path": None, "drift.temperatures": [0.2, float("inf")]},
     "config key 'drift.temperatures[1]' expects a finite float, got inf"),
    ("train", {"data.path": None, "drift.temperatures": [float("nan")]},
     "config key 'drift.temperatures[0]' expects a finite float, got nan"),
    ("train", {"data.path": None, "drift.temperatures": [0.2, 10**400]},
     f"config key 'drift.temperatures[1]' expects a finite float, got {10**400}"),
    # a mistyped item is named and shown alone, like a non-finite one
    ("train", {"data.path": None, "drift.temperatures": [0.2, "x"]},
     "config key 'drift.temperatures[1]' expects float, got 'x'"),
]


@pytest.mark.parametrize("command,payload,message", BAD_SETTINGS,
                         ids=[f"{c}-{'-'.join(p)}" for c, p, _ in BAD_SETTINGS])
def test_bad_setting_exits_2_with_config_error(tmp_path, capsys, monkeypatch, tiny_data,
                                               tiny_checkpoint, command, payload, message):
    if command == "finetune" or command == "eval" and payload.get("eval.policy") != "scripted":
        payload = {"checkpoint.path": tiny_checkpoint, **payload}
    # a dataset key names the module's tiny dataset
    payload = {key: str(tiny_data / "dataset.csv") if key in ("data.path", "eval.dataset")
               else value for key, value in payload.items()}
    evaluations = []

    def counted_evaluate_policy(*args, **kwargs):
        evaluations.append(args)
        return evaluate_policy(*args, **kwargs)

    monkeypatch.setattr(cli, "evaluate_policy", counted_evaluate_policy)
    cfg = write_config(tmp_path / "bad.json", payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    # a bad coverage count is rejected before the evaluation runs any episode
    if "eval.dataset" in payload:
        assert not evaluations


# Typed value pools for the settings property: a key draws from its kind's pool.
SETTING_POOLS = {
    int: [-1, 0, 1, 3],
    float: [0.0, -1.0, 1e308, -1e308, 1e-320, float("nan"), float("inf"), -float("inf")],
    str: ["", "x"],
    bool: [False, True],
    tuple[float, ...]: [[], [0.7], [0.02, 0.05, 0.2], [0.0], [-1.0], [1e-320], [10**400],
                        [float("nan")]],
}

# A tiny run of each command and of each eval policy, which the property
# changes one or two keys of; every size key is already small, and the int
# pool keeps it so.  :func:`tiny_run` adds the input files.
TINY_RUNS = {
    "synth": {"synth.conditions": 2, **TINY_CHUNK},
    "train": {"train.steps": 2, "model.latent_dim": 4, "model.hidden_dim": 8,
              "drift.temperatures": [0.7]},
    "eval": {"eval.episodes": 1, "eval.coverage_samples": 2, "eval.coverage_conditions": 2},
    "eval-scripted": {"eval.policy": "scripted", "eval.episodes": 1, "chunk.history_len": 1,
                      "chunk.exec_len": 2},
    "finetune": {"ppo.iterations": 1, "ppo.rollout_length": 4, "ppo.minibatch_size": 2,
                 "ppo.update_epochs": 1},
}


def tiny_run(run, data, checkpoint):
    """``(command, settings)`` of ``TINY_RUNS[run]`` reading the dataset
    directory ``data`` and the checkpoint file ``checkpoint``."""
    inputs = {"train": {"data.path": str(data / "dataset.csv")},
              "eval": {"checkpoint.path": str(checkpoint),
                       "eval.dataset": str(data / "dataset.csv")},
              "finetune": {"checkpoint.path": str(checkpoint)}}
    return run.split("-")[0], {**inputs.get(run, {}), **TINY_RUNS[run]}


# ``{key: (kind, default)}`` of the keys each tiny run reads
RUN_KEYS = {run: run_keys(tiny_run(run, Path("d"), "c")[1], run.split("-")[0])[0]
            for run in TINY_RUNS}


@pytest.mark.parametrize("run", sorted(TINY_RUNS))
def test_every_tiny_run_exits_0_as_it_stands(tmp_path, tiny_data, tiny_checkpoint, run):
    # the settings property and the tripwire below change these runs one key
    # at a time; a fixture that fails as it stands would make both vacuous
    command, settings = tiny_run(run, tiny_data, tiny_checkpoint)
    cfg = write_config(tmp_path / "c.json", settings)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0


@st.composite
def setting_changes(draw):
    run = draw(st.sampled_from(sorted(TINY_RUNS)))
    table = RUN_KEYS[run]
    keys = draw(st.lists(st.sampled_from(sorted(table)), min_size=1, max_size=2, unique=True))
    return run, {key: draw(st.sampled_from(SETTING_POOLS[table[key][0]])) for key in keys}


@settings(max_examples=200, deadline=None)
@given(change=setting_changes())
def test_any_setting_exits_with_a_driftkit_code(tmp_path_factory, tiny_data, tiny_checkpoint,
                                                change):
    run_name, payload = change
    run = tmp_path_factory.mktemp("run")
    command, settings = tiny_run(run_name, tiny_data, tiny_checkpoint)
    cfg = write_config(run / "c.json", {**settings, **payload})
    code = main([command, "--config", cfg, "--out", str(run / "o")])
    assert code in (0, 2, 3, 4)
    assert (run / "o" / "abort_dump.json").exists() == (code == EXIT_NUMERIC)


# For the settings tripwire: a valid value of every key a run reads or once
# read, other than its default; a run that sets the key to it gets the default.
OTHER_DATA, OTHER_CHECKPOINT = "<other dataset>", "<other checkpoint>"
ALTERNATES = {
    "synth.modes": 3, "synth.conditions": 3, "synth.samples_per_condition": 3,
    "synth.noise": 0.1, "synth.seed": 1, "synth.gain": 2.0, "synth.swing_amp": 0.25,
    "synth.swing_len": 4, "synth.warmup_max": 2,
    "chunk.horizon": 5, "chunk.history_len": 2, "chunk.exec_len": 3,
    "data.path": OTHER_DATA, "train.batch_size": 8, "train.learning_rate": 1e-3,
    "train.beta1": 0.9, "train.beta2": 0.99, "train.weight_decay": 0.1,
    "train.grad_clip": 1e-3, "train.steps": 3, "train.warmup_steps": 1,
    "train.ema_decay": 0.1, "train.ema_power": 2.0, "train.seed": 1,
    "train.checkpoint_every": 1,
    "drift.hypothesis_count": 2, "drift.temperatures": [0.2], "drift.scale_floor": 100.0,
    "drift.force_floor": 100.0, "drift.loss_mode": "step_wise",
    "model.latent_dim": 3, "model.hidden_dim": 6, "model.init_seed": 1,
    "checkpoint.path": OTHER_CHECKPOINT, "eval.episodes": 2, "eval.seed": 1,
    "eval.reward_mode": "sparse", "eval.policy": "scripted", "eval.use_ema": False,
    "eval.dataset": OTHER_DATA, "eval.coverage_samples": 1, "eval.coverage_conditions": 1,
    "ppo.clip": 0.01, "ppo.value_weight": 0.25, "ppo.entropy_weight": 0.5,
    "ppo.anchor_weight": 0.5, "ppo.gamma": 0.5, "ppo.gae_lambda": 0.5,
    "ppo.rollout_length": 5, "ppo.update_epochs": 2, "ppo.minibatch_size": 2,
    "ppo.actor_lr": 1e-2, "ppo.critic_lr": 1e-2, "ppo.iterations": 2,
    "ppo.anchor_decay": True, "ppo.seed": 1, "ppo.reward_mode": "dense",
    "ppo.log_std_init": -1.0, "ppo.critic_seed": 1, "ppo.use_ema": False,
    # keys that no run reads any more
    "chunk.action_dim": 3, "train.epochs": 7,
}
# the settings added to a tiny run, and to its baseline, under which a key it
# reads binds
BINDS_WITH = {"ppo.anchor_decay": {"ppo.iterations": 2}}
# ``"<run>: <key>"`` pairs that neither change an output nor are rejected by
# name, each with its reason
UNBOUND = {}


def _run_outputs(tmp_path, capsys, command, settings):
    """The exit code, the error text and the output files (all but the config
    snapshot, and the report without its wall clock) of one run."""
    out = tmp_path / f"out{len(list(tmp_path.iterdir()))}"
    cfg = write_config(out.with_suffix(".json"), settings)
    code = main([command, "--config", cfg, "--out", str(out)])
    files = {path.name: path.read_bytes() for path in sorted(out.glob("*"))
             if path.name != "config.json"} if out.exists() else {}
    if "report.json" in files:
        report = json.loads(files["report.json"])
        report.pop("wall_clock_per_decision_ms", None)
        files["report.json"] = report
    return code, capsys.readouterr().err, files


def test_every_setting_binds_or_is_rejected_by_name(tmp_path, capsys, tiny_data,
                                                    tiny_checkpoint):
    # each key set alone, on each tiny run, to a value other than the run's:
    # the run must change an output file, or exit 2 naming the key
    other_data = synth_dir(tmp_path, "other-data", conditions=6, modes=3)
    _, other_run = train_dir(tmp_path, tiny_data, "other-run", steps=3)
    inputs = {OTHER_DATA: str(other_data / "dataset.csv"),
              OTHER_CHECKPOINT: str(other_run / "checkpoint_final.json")}
    runs = tmp_path / "runs"
    runs.mkdir()
    baselines, unbound = {}, []
    for run in TINY_RUNS:
        command, settings = tiny_run(run, tiny_data, tiny_checkpoint)
        for key, value in ALTERNATES.items():
            base = {**settings, **(BINDS_WITH.get(key, {}) if key in RUN_KEYS[run] else {})}
            value = inputs.get(value, value) if isinstance(value, str) else value
            if base.get(key) == value:  # the run sets the alternate: take the default
                value = RUN_KEYS[run][key][1]
            assert base.get(key) != value, (run, key)
            name = json.dumps(base, sort_keys=True)
            if name not in baselines:
                baselines[name] = _run_outputs(runs, capsys, command, base)
                assert baselines[name][0] == 0, (run, key, baselines[name][1])
            code, err, files = _run_outputs(runs, capsys, command, {**base, key: value})
            if not (code == 0 and files != baselines[name][2] or code == 2 and key in err):
                unbound.append(f"{run}: {key}")
    assert sorted(set(unbound) - set(UNBOUND)) == []
    assert sorted(set(UNBOUND) - set(unbound)) == []
    assert set().union(*RUN_KEYS.values()) <= set(ALTERNATES)


def driftkit_error_classes():
    """Every exception class defined in a driftkit module."""
    found = set()
    for info in pkgutil.iter_modules(driftkit.__path__):
        module = importlib.import_module(f"driftkit.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and issubclass(obj, Exception)
                    and obj.__module__ == module.__name__):
                found.add(obj)
    return sorted(found, key=lambda cls: cls.__name__)


def test_every_driftkit_error_but_numeric_ones_exits_2(tmp_path, capsys, monkeypatch):
    # one error for a rejected setting or input, and the two of the exit-3
    # path: a module that adds its own error class fails here
    assert driftkit_error_classes() == [AutodiffError, NumericalAbort, SpecError]
    cfg = write_config(tmp_path / "s.json", {"synth.conditions": 2})

    def boom(*args):
        raise SpecError("boom")

    monkeypatch.setitem(cli.COMMANDS, "synth", boom)
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "config error: boom" in capsys.readouterr().err


def test_finetune_blow_up_exits_3_with_iteration_in_dump(tmp_path, capsys, tiny_checkpoint):
    cfg = write_config(tmp_path / "f.json", {
        "checkpoint.path": tiny_checkpoint, "ppo.actor_lr": 1e300,
        "ppo.iterations": 2, "ppo.rollout_length": 8, "ppo.minibatch_size": 4})
    out = tmp_path / "ft"
    assert main(["finetune", "--config", cfg, "--out", str(out)]) == 3
    assert "numerical abort: PPO epoch" in capsys.readouterr().err
    dump = json.loads((out / "abort_dump.json").read_text())
    assert dump["iteration"] == 1
    assert dump["epoch"] == 0
    assert len(dump["minibatch_indices"]) == 4
    assert not (out / "checkpoint_final.json").exists()


def finetune_collection_blow_up(tmp_path, capsys, tiny_checkpoint, lr_key):
    """Exit 3 with dump ``{"iteration": 2}`` when the network whose lr is
    ``lr_key`` (1e308) overflows in the second collection: the first update
    leaves finite but huge weights, and the collection runs outside any update."""
    cfg = write_config(tmp_path / "f.json", {
        "checkpoint.path": tiny_checkpoint, lr_key: 1e308, "ppo.iterations": 2,
        "ppo.rollout_length": 8, "ppo.minibatch_size": 8, "ppo.update_epochs": 1})
    out = tmp_path / "ft"
    assert main(["finetune", "--config", cfg, "--out", str(out)]) == EXIT_NUMERIC
    assert "numerical abort: PPO iteration 2 rollouts:" in capsys.readouterr().err
    dump = json.loads((out / "abort_dump.json").read_text())
    assert dump == {"iteration": 2}
    assert not (out / "checkpoint_final.json").exists()


def test_finetune_collection_blow_up_exits_3_with_iteration_in_dump(tmp_path, capsys,
                                                                    tiny_checkpoint):
    # the actor overflows in its per-decision forward pass
    finetune_collection_blow_up(tmp_path, capsys, tiny_checkpoint, "ppo.actor_lr")


def test_finetune_critic_collection_blow_up_exits_3_with_iteration_in_dump(tmp_path, capsys,
                                                                           tiny_checkpoint):
    # the critic overflows in its one pass after the trajectory
    finetune_collection_blow_up(tmp_path, capsys, tiny_checkpoint, "ppo.critic_lr")


@pytest.mark.parametrize("stage", ["mode_coverage", "episodes"])
def test_eval_blow_up_exits_3_with_stage_in_dump(tmp_path, capsys, tiny_data, tiny_checkpoint,
                                                  stage):
    # finite weights that the loader accepts, whose first pre-activation overflows
    doc = json.loads(Path(tiny_checkpoint).read_text())
    obs_w = doc["params"]["obs_w"]
    obs_w["data"] = [1e308] * len(obs_w["data"])
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    dataset = str(tiny_data / "dataset.csv") if stage == "mode_coverage" else None
    cfg = write_config(tmp_path / "e.json", {
        "checkpoint.path": str(path), "eval.use_ema": False, "eval.episodes": 2,
        "eval.dataset": dataset})
    out = tmp_path / "ev"
    assert main(["eval", "--config", cfg, "--out", str(out)]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert f"numerical abort: eval {stage}: affine output has non-finite values" in err
    assert json.loads((out / "abort_dump.json").read_text()) == {"stage": stage}
    assert not (out / "report.json").exists()


def test_malformed_json_rejected_with_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def _truncated_before_params(text):
    return text[:text.index('"params"')]


def _edit(key, change):
    """An edit of a JSON text that applies ``change(obj, name)`` to the object
    holding the dotted ``key``."""
    def edit(text):
        doc = json.loads(text)
        *outer, name = key.split(".")
        obj = doc
        for part in outer:
            obj = obj[part]
        change(obj, name)
        return json.dumps(doc)
    return edit


def _without(key):
    return _edit(key, lambda obj, name: obj.pop(name))


def _with(key, value):
    return _edit(key, lambda obj, name: obj.__setitem__(name, value))


def _in_head_w(key, value):
    """An edit of a checkpoint text that sets item 3 of ``head_w``'s data under ``key``."""
    def edit(text):
        doc = json.loads(text)
        doc[key]["head_w"]["data"][3] = value
        return json.dumps(doc)
    return edit


def _in_first_record(column, value):
    """An edit of a dataset CSV text that sets the first record's ``column``."""
    def edit(text):
        header, first, rest = text.split("\n", 2)
        cells = first.split(",")
        cells[header.split(",").index(column)] = value
        return "\n".join([header, ",".join(cells), rest])
    return edit


# (id, command, the file corrupted, the edit of its text, and the message
# printed after "config error: " given the file's path and its edited text)
CORRUPT_INPUTS = [
    ("checkpoint-truncated", "eval", "checkpoint.json", _truncated_before_params,
     lambda path, text: f"checkpoint {path}: not valid JSON: Expecting property name "
                        f"enclosed in double quotes: line 1 column {len(text) + 1} "
                        f"(char {len(text)})"),
    ("checkpoint-list", "eval", "checkpoint.json", lambda text: "[1, 2]",
     lambda path, text: f"checkpoint {path}: not a JSON object"),
    ("checkpoint-no-hidden-dim-eval", "eval", "checkpoint.json", _without("hidden_dim"),
     lambda path, text: f"checkpoint {path}: no key 'hidden_dim'"),
    ("checkpoint-no-hidden-dim-finetune", "finetune", "checkpoint.json",
     _without("hidden_dim"), lambda path, text: f"checkpoint {path}: no key 'hidden_dim'"),
    ("checkpoint-nan-in-ema", "finetune", "checkpoint.json",
     _in_head_w("ema_params", float("nan")),
     lambda path, text: f"checkpoint {path}: key 'ema_params.head_w.data[3]' expects a finite "
                        "float, got nan"),
    # an int past the float range once escaped as an OverflowError
    ("checkpoint-huge-int-in-params", "eval", "checkpoint.json", _in_head_w("params", 10**400),
     lambda path, text: f"checkpoint {path}: key 'params.head_w.data[3]' expects a finite "
                        f"float, got {10**400}"),
    ("dataset-cell-abc", "train", "dataset.csv", _in_first_record("obs_0", "abc"),
     lambda path, text: f"dataset {path} line 2: could not convert string to float: 'abc'"),
    ("dataset-meta-truncated", "train", "dataset_meta.json", lambda text: text[:1],
     lambda path, text: f"dataset metadata {path}: not valid JSON: Expecting property name "
                        "enclosed in double quotes: line 1 column 2 (char 1)"),
    # a mistyped field is never coerced: 6.7 is not read as 6, nor true as 1
    ("checkpoint-obs-dim-float", "eval", "checkpoint.json", _with("obs_dim", 6.7),
     lambda path, text: f"checkpoint {path}: key 'obs_dim' expects int, got 6.7"),
    ("checkpoint-obs-dim-str", "eval", "checkpoint.json", _with("obs_dim", "six"),
     lambda path, text: f"checkpoint {path}: key 'obs_dim' expects int, got 'six'"),
    ("checkpoint-format-version-true", "eval", "checkpoint.json",
     _with("format_version", True),
     lambda path, text: f"checkpoint {path}: key 'format_version' expects int, got True"),
    ("checkpoint-horizon-str", "eval", "checkpoint.json", _with("chunk_spec.horizon", "4"),
     lambda path, text: f"checkpoint {path}: key 'chunk_spec.horizon' expects int, got '4'"),
    ("checkpoint-horizon-float", "eval", "checkpoint.json", _with("chunk_spec.horizon", 4.9),
     lambda path, text: f"checkpoint {path}: key 'chunk_spec.horizon' expects int, got 4.9"),
    ("checkpoint-no-horizon", "eval", "checkpoint.json", _without("chunk_spec.horizon"),
     lambda path, text: f"checkpoint {path}: no key 'chunk_spec.horizon'"),
    ("checkpoint-chunk-spec-list", "eval", "checkpoint.json", _with("chunk_spec", [4, 2, 1, 2]),
     lambda path, text: f"checkpoint {path}: key 'chunk_spec' expects dict, got [4, 2, 1, 2]"),
    ("checkpoint-params-list", "eval", "checkpoint.json", _with("params", [1, 2]),
     lambda path, text: f"checkpoint {path}: key 'params' expects dict, got [1, 2]"),
    ("checkpoint-head-w-no-data", "eval", "checkpoint.json", _without("params.head_w.data"),
     lambda path, text: f"checkpoint {path}: no key 'params.head_w.data'"),
    # a mistyped item is named by its index and shown alone, not with its list
    ("checkpoint-head-w-data-str", "eval", "checkpoint.json",
     _with("params.head_w.data", ["a"]),
     lambda path, text: f"checkpoint {path}: key 'params.head_w.data[0]' expects float, "
                        "got 'a'"),
    ("checkpoint-true-in-params", "eval", "checkpoint.json", _in_head_w("params", True),
     lambda path, text: f"checkpoint {path}: key 'params.head_w.data[3]' expects float, "
                        "got True"),
    ("checkpoint-head-w-shape", "eval", "checkpoint.json", _with("params.head_w.shape", [3]),
     lambda path, text: f"checkpoint {path}: key 'params.head_w.shape' is [3], "
                        "but the data holds 128 values"),
    ("dataset-meta-obs-dim-str", "train", "dataset_meta.json", _with("obs_dim", "six"),
     lambda path, text: f"dataset metadata {path}: key 'obs_dim' expects int, got 'six'"),
    ("dataset-meta-no-exec-len", "train", "dataset_meta.json",
     _without("chunk_spec.exec_len"),
     lambda path, text: f"dataset metadata {path}: no key 'chunk_spec.exec_len'"),
    ("dataset-meta-no-gain-eval", "eval", "dataset_meta.json", _without("gain"),
     lambda path, text: f"dataset metadata {path}: no key 'gain'"),
    # coverage replans the mode centres with the synthesis gain, as synth checks it
    ("dataset-meta-huge-gain-eval", "eval", "dataset_meta.json", _with("gain", 1e308),
     lambda path, text: f"dataset metadata {path}: key 'gain' is 1e+308, outside (0, 1e+06]"),
    # coverage scores against one centre per sign, so the mode count must match them
    ("dataset-meta-five-modes-two-signs-eval", "eval", "dataset_meta.json", _with("modes", 5),
     lambda path, text: f"dataset metadata {path}: key 'modes' is 5, "
                        "but 'mode_signs' holds 2 values"),
    # coverage of no modes used to crash reshaping the mode centres
    ("dataset-meta-zero-modes-eval", "eval", "dataset_meta.json",
     lambda text: _with("mode_signs", [])(_with("modes", 0)(text)),
     lambda path, text: f"dataset metadata {path}: key 'modes' is 0, below 1"),
    # a negative swing length once planned as 0
    ("dataset-meta-negative-swing-len-eval", "eval", "dataset_meta.json",
     _with("swing_len", -1),
     lambda path, text: f"dataset metadata {path}: key 'swing_len' is -1, below 0"),
    # a sign is read as an item of a float list, named by its index
    ("dataset-meta-nan-sign-eval", "eval", "dataset_meta.json",
     _with("mode_signs", [float("nan"), 1.0]),
     lambda path, text: f"dataset metadata {path}: key 'mode_signs[0]' expects a finite float, "
                        "got nan"),
    ("dataset-meta-huge-int-sign-train", "train", "dataset_meta.json",
     _with("mode_signs", [-1.0, 10**400]),
     lambda path, text: f"dataset metadata {path}: key 'mode_signs[1]' expects a finite "
                        f"float, got {10**400}"),
    ("dataset-meta-str-sign-eval", "eval", "dataset_meta.json", _with("mode_signs", [-1.0, "+"]),
     lambda path, text: f"dataset metadata {path}: key 'mode_signs[1]' expects float, "
                        "got '+'"),
    ("dataset-obs-inf-eval", "eval", "dataset.csv", _in_first_record("obs_0", "inf"),
     lambda path, text: f"dataset {path} line 2: obs_0 is inf, not finite"),
    ("dataset-expert-nan-train", "train", "dataset.csv", _in_first_record("act_3", "nan"),
     lambda path, text: f"dataset {path} line 2: act_3 is nan, not finite"),
    # coverage of no conditions used to report NaN
    ("dataset-header-only-eval", "eval", "dataset.csv", lambda text: text.split("\n", 1)[0],
     lambda path, text: f"dataset {path} has no records"),
]


@pytest.mark.parametrize("command,target,edit,message", [c[1:] for c in CORRUPT_INPUTS],
                         ids=[c[0] for c in CORRUPT_INPUTS])
def test_corrupt_input_exits_2_naming_the_file(tmp_path, capsys, tiny_data, tiny_checkpoint,
                                               command, target, edit, message):
    files = tmp_path / "files"
    files.mkdir()
    sources = {"checkpoint.json": Path(tiny_checkpoint),
               "dataset.csv": tiny_data / "dataset.csv",
               "dataset_meta.json": tiny_data / "dataset_meta.json"}
    for name, source in sources.items():
        (files / name).write_bytes(source.read_bytes())
    path = files / target
    text = edit(path.read_bytes().decode())
    path.write_bytes(text.encode())
    key, name = (("data.path", "dataset.csv") if command == "train"
                 else ("checkpoint.path", "checkpoint.json"))
    # eval reads the dataset too, for mode coverage, once the checkpoint has loaded
    extra = {"eval.dataset": str(files / "dataset.csv")} if command == "eval" else {}
    cfg = write_config(tmp_path / "c.json", {key: str(files / name), **extra})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {message(path, text)}\n"


def test_a_bad_item_of_a_large_checkpoint_array_is_shown_alone(tmp_path, capsys):
    # trunk1_w holds 8,192 values at hidden 64; the whole list used to be
    # printed, a config error line of 177,750 characters
    spec = ChunkSpec(horizon=4, history_len=1, exec_len=2)
    path = tmp_path / "wide.json"
    save_checkpoint(path, Generator(spec, obs_dim=6, latent_dim=8, hidden_dim=64))
    doc = json.loads(path.read_text())
    assert len(doc["params"]["trunk1_w"]["data"]) == 8192
    doc["params"]["trunk1_w"]["data"][5] = "x"
    path.write_text(json.dumps(doc))
    cfg = write_config(tmp_path / "e.json", {"checkpoint.path": str(path)})
    assert main(["eval", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == (f"config error: checkpoint {path}: key 'params.trunk1_w.data[5]' "
                   "expects float, got 'x'\n")
    assert len(err) < 200


def test_train_zero_steps_checkpoint_equals_initialization(tmp_path):
    data = synth_dir(tmp_path)
    code, out = train_dir(tmp_path, data, steps=0)
    assert code == 0
    doc = load_checkpoint(out / "checkpoint_final.json")
    restored = restore_generator(doc)
    fresh = Generator(restored.spec, obs_dim=6, latent_dim=4, hidden_dim=16, seed=0)
    for name, t in fresh.params.items():
        assert np.array_equal(restored.params[name].data, t.data)
    assert (out / "metrics.csv").read_text().strip() == "step,loss,grad_norm,s_norm,lr"


def test_train_rerun_is_bitwise_identical(tmp_path):
    data = synth_dir(tmp_path)
    _, run_a = train_dir(tmp_path, data, "run_a")
    _, run_b = train_dir(tmp_path, data, "run_b")
    assert (run_a / "metrics.csv").read_bytes() == (run_b / "metrics.csv").read_bytes()
    assert (run_a / "checkpoint_final.json").read_bytes() == \
        (run_b / "checkpoint_final.json").read_bytes()


def test_train_seed_flag_overrides_config(tmp_path):
    data = synth_dir(tmp_path)
    payload = {"data.path": str(data / "dataset.csv"), "train.steps": 4,
               "train.seed": 5, "model.latent_dim": 4, "model.hidden_dim": 16}
    cfg = write_config(tmp_path / "t.json", payload)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["train", "--config", cfg, "--out", str(out1), "--seed", "99"]) == 0
    assert main(["train", "--config", cfg, "--out", str(out2)]) == 0
    snap = json.loads((out1 / "config.json").read_text())
    assert snap["train.seed"] == 99
    assert (out1 / "metrics.csv").read_bytes() != (out2 / "metrics.csv").read_bytes()


def test_train_missing_dataset_gives_io_exit(tmp_path):
    payload = {"data.path": str(tmp_path / "nope.csv"), "train.steps": 1}
    cfg = write_config(tmp_path / "t.json", payload)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 4


def test_eval_scripted_policy_succeeds_everywhere(tmp_path):
    cfg = write_config(tmp_path / "e.json", {
        "eval.policy": "scripted", "eval.reward_mode": "sparse",
        "eval.episodes": 20, "eval.seed": 0})
    out = tmp_path / "eval"
    assert main(["eval", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["success_rate"] == 1.0


def test_eval_zero_episodes_is_empty_success(tmp_path):
    cfg = write_config(tmp_path / "e.json", {
        "eval.policy": "scripted", "eval.episodes": 50})
    out = tmp_path / "eval0"
    assert main(["eval", "--config", cfg, "--out", str(out), "--episodes", "0"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["episodes"] == 0
    assert report["mean_return"] is None
    # the snapshot records the episodes that ran, as it does a --seed
    assert json.loads((out / "config.json").read_text())["eval.episodes"] == 0


@pytest.mark.parametrize("command", ["eval", "finetune"])
def test_use_ema_true_on_a_file_without_ema_names_the_key_and_the_file(tmp_path, capsys,
                                                                      tiny_checkpoint, command):
    # a tuned file holds its live parameters alone: the default runs them, and
    # an explicit true, which used to fall back to them, is a config error
    cfg = write_config(tmp_path / "tune.json", {"checkpoint.path": tiny_checkpoint,
                                                **TINY_RUNS["finetune"]})
    assert main(["finetune", "--config", cfg, "--out", str(tmp_path / "tune")]) == 0
    tuned = tmp_path / "tune" / "checkpoint_final.json"
    settings = {"eval": {"eval.episodes": 1}, "finetune": TINY_RUNS["finetune"]}[command]
    key = {"eval": "eval.use_ema", "finetune": "ppo.use_ema"}[command]
    for use_ema, code in ((None, 0), (False, 0), (True, 2)):
        cfg = write_config(tmp_path / "c.json", {"checkpoint.path": str(tuned), key: use_ema,
                                                 **settings})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == code
    assert capsys.readouterr().err == \
        f"config error: {key} is true, but checkpoint {tuned} has no ema_params\n"


def test_every_stage1_checkpoint_holds_its_ema_and_eval_runs_it_by_default(
        tmp_path, monkeypatch, tiny_data):
    # a sweep over the periodic files and the final one evaluates one kind of
    # parameter set: with use_ema null, each file's EMA
    code, run = train_dir(tmp_path, tiny_data, steps=4, extra={"train.checkpoint_every": 2})
    assert code == 0
    final = load_checkpoint(run / "checkpoint_final.json")["ema_params"]
    ran = []

    def recorded_evaluate_policy(make_env, actor, *args):
        ran.append(actor.generator.params.arrays())
        return evaluate_policy(make_env, actor, *args)

    monkeypatch.setattr(cli, "evaluate_policy", recorded_evaluate_policy)
    for step in (2, 4):
        path = run / f"checkpoint_step{step}.json"
        doc = load_checkpoint(path)
        assert doc["ema_params"].keys() == doc["params"].keys()
        assert any(not np.array_equal(doc["ema_params"][name], arr)
                   for name, arr in doc["params"].items())
        cfg = write_config(tmp_path / "e.json", {"checkpoint.path": str(path),
                                                 "eval.episodes": 1})
        assert main(["eval", "--config", cfg, "--out", str(tmp_path / f"e{step}")]) == 0
        assert all(np.array_equal(ran[-1][name], arr) for name, arr in doc["ema_params"].items())
    # the last periodic file holds the final file's shadow
    assert all(np.array_equal(doc["ema_params"][name], arr) for name, arr in final.items())


# checkpoint geometries against the tiny dataset's (horizon 4, action_dim 2,
# history_len 1, exec_len 2, obs_dim 6): the chunk spec's changes and obs_dim
OTHER_GEOMETRIES = {"horizon": ({"horizon": 6}, 6), "history-len": ({"history_len": 2}, 6),
                    "action-dim": ({"action_dim": 3}, 6), "obs-dim": ({}, 7)}


@pytest.mark.parametrize("geometry", sorted(OTHER_GEOMETRIES))
def test_an_eval_dataset_of_another_geometry_is_rejected_before_coverage(
        tmp_path, capsys, monkeypatch, tiny_data, geometry):
    # it used to fail in mode_coverage, broadcasting the dataset's chunks
    # against the generator's, with a numpy traceback
    change, obs_dim = OTHER_GEOMETRIES[geometry]
    spec = ChunkSpec(**{"horizon": 4, "history_len": 1, "exec_len": 2, **change})
    path = tmp_path / "c.json"
    save_checkpoint(path, Generator(spec, obs_dim=obs_dim, latent_dim=4, hidden_dim=8))
    ran = []
    monkeypatch.setattr(cli, "mode_coverage", lambda *args, **kwargs: ran.append("coverage"))
    monkeypatch.setattr(cli, "evaluate_policy", lambda *args: ran.append("episodes"))
    data = tiny_data / "dataset.csv"
    cfg = write_config(tmp_path / "e.json", {"checkpoint.path": str(path),
                                             "eval.dataset": str(data), "eval.episodes": 1})
    assert main(["eval", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"config error: eval.dataset {data} has observations of shape (1, 6) and chunks of "
        f"shape (4, 2), but the checkpoint's are {(spec.history_len, obs_dim)} and "
        f"{(spec.horizon, spec.action_dim)}\n")
    assert ran == []


def test_an_eval_dataset_of_another_exec_len_runs(tmp_path, tiny_data):
    # coverage scores whole chunks, so the executed prefix may differ
    path = tmp_path / "c.json"
    spec = ChunkSpec(horizon=4, history_len=1, exec_len=3)
    save_checkpoint(path, Generator(spec, obs_dim=6, latent_dim=4, hidden_dim=8))
    cfg = write_config(tmp_path / "e.json", {
        "checkpoint.path": str(path), "eval.dataset": str(tiny_data / "dataset.csv"),
        "eval.episodes": 1, "eval.coverage_samples": 2, "eval.coverage_conditions": 2})
    assert main(["eval", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert "mode_coverage" in json.loads((tmp_path / "o" / "report.json").read_text())


def test_eval_checkpoint_policy_reports_nfe_and_coverage(tmp_path, monkeypatch):
    data = synth_dir(tmp_path, conditions=8)
    _, run = train_dir(tmp_path, data, steps=4)
    cfg = write_config(tmp_path / "e.json", {
        "checkpoint.path": str(run / "checkpoint_final.json"),
        "eval.episodes": 3, "eval.seed": 1, "eval.dataset": str(data / "dataset.csv"),
        "eval.coverage_samples": 8, "eval.coverage_conditions": 4})
    out = tmp_path / "evalc"
    # a clock on which the evaluation takes exactly one second
    ticks = iter([0.0, 1.0])
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    assert main(["eval", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["nfe_violations"] == 0
    assert report["nfe_per_decision"] == 1.0
    assert 0.0 <= report["mode_coverage"] <= 1.0
    # the second is shared by the episodes' decisions only, not the coverage rows
    actor = GaussianActor(restore_generator(load_checkpoint(run / "checkpoint_final.json"),
                                            use_ema=True))
    evaluate_policy(lambda: PointMassEnv(actor.spec, reward_mode="dense"), actor, 3, 1)
    assert report["wall_clock_per_decision_ms"] == 1e3 / actor.generator.nfe_count


def test_finetune_zero_iterations_keeps_policy(tmp_path):
    data = synth_dir(tmp_path)
    _, run = train_dir(tmp_path, data, steps=4)
    cfg = write_config(tmp_path / "f.json", {
        "checkpoint.path": str(run / "checkpoint_final.json"),
        "ppo.iterations": 0, "ppo.rollout_length": 8, "ppo.seed": 2})
    out = tmp_path / "ft0"
    assert main(["finetune", "--config", cfg, "--out", str(out)]) == 0
    doc0 = load_checkpoint(run / "checkpoint_final.json")
    doc1 = load_checkpoint(out / "checkpoint_final.json")
    base = restore_generator(doc0, use_ema=True)
    tuned = restore_generator(doc1)
    for name in base.params:
        assert np.array_equal(tuned.params[name].data, base.params[name].data)
    # the run hands on its generator alone
    assert "actor_head" not in doc1 and "critic" not in doc1


def test_finetune_runs_and_is_deterministic(tmp_path):
    data = synth_dir(tmp_path)
    _, run = train_dir(tmp_path, data, steps=4)
    payload = {
        "checkpoint.path": str(run / "checkpoint_final.json"),
        "ppo.iterations": 2, "ppo.rollout_length": 12,
        "ppo.minibatch_size": 6, "ppo.update_epochs": 2, "ppo.seed": 11}
    cfg = write_config(tmp_path / "f.json", payload)
    out_a, out_b = tmp_path / "ft_a", tmp_path / "ft_b"
    assert main(["finetune", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["finetune", "--config", cfg, "--out", str(out_b)]) == 0
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
    assert (out_a / "checkpoint_final.json").read_bytes() == \
        (out_b / "checkpoint_final.json").read_bytes()
    header = (out_a / "metrics.csv").read_text().splitlines()[0]
    assert header == "iter,mean_return,clip_frac,ratio_mean,value_loss,entropy,anchor_loss"


def _packed(bundle):
    return {name: {"shape": list(arr.shape), "data": arr.reshape(-1).tolist()}
            for name, arr in bundle.arrays().items()}


def _outputs(tmp_path, checkpoint, data, name):
    """What the commands that read a checkpoint make of ``checkpoint``: the exit
    code and report of an ``eval`` with mode coverage, and the exit code and
    files of a 1-iteration ``finetune``."""
    evald, tuned = tmp_path / f"eval-{name}", tmp_path / f"ft-{name}"
    ecfg = write_config(tmp_path / f"e-{name}.json", {
        "checkpoint.path": str(checkpoint), "eval.episodes": 2, "eval.seed": 1,
        "eval.dataset": str(data / "dataset.csv"), "eval.coverage_samples": 2,
        "eval.coverage_conditions": 2})
    fcfg = write_config(tmp_path / f"f-{name}.json", {
        "checkpoint.path": str(checkpoint), **TINY_RUNS["finetune"]})
    outputs = [main(["eval", "--config", ecfg, "--out", str(evald)])]
    if outputs[0] == 0:
        report = json.loads((evald / "report.json").read_text())
        del report["wall_clock_per_decision_ms"]
        outputs.append(report)
    outputs.append(main(["finetune", "--config", fcfg, "--out", str(tuned)]))
    if outputs[-1] == 0:
        outputs += [(tuned / f).read_bytes() for f in ("metrics.csv", "checkpoint_final.json")]
    return outputs


def test_a_finetune_checkpoint_with_the_old_head_and_critic_entries_still_loads(tmp_path,
                                                                             monkeypatch):
    # fine-tune checkpoints once also stored the run's scale head, with its
    # clip bounds, and its critic; such a file restores the same generator
    data = synth_dir(tmp_path)
    _, run = train_dir(tmp_path, data, steps=4)
    runs, cli_finetune = [], cli.finetune

    def kept_finetune(*args, **kwargs):
        runs.append(cli_finetune(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(cli, "finetune", kept_finetune)
    cfg = write_config(tmp_path / "f.json", {
        "checkpoint.path": str(run / "checkpoint_final.json"), "ppo.iterations": 1,
        "ppo.rollout_length": 8, "ppo.minibatch_size": 4, "ppo.seed": 2})
    assert main(["finetune", "--config", cfg, "--out", str(tmp_path / "ft")]) == 0
    (actor, critic, _), = runs
    new = tmp_path / "ft" / "checkpoint_final.json"
    doc = json.loads(new.read_text())
    assert "actor_head" not in doc and "critic" not in doc
    input_dim, hidden_dim = critic.params["v1_w"].data.shape
    doc["actor_head"] = {"log_std_bounds": [-5.0, 1.0], "params": _packed(actor.head)}
    doc["critic"] = {"input_dim": input_dim, "hidden_dim": hidden_dim,
                     "params": _packed(critic.params)}
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    restored = [restore_generator(load_checkpoint(path)).params.data.vector
                for path in (new, old)]
    assert restored[0].tobytes() == restored[1].tobytes()
    assert _outputs(tmp_path, new, data, "new") == _outputs(tmp_path, old, data, "old")


@pytest.mark.parametrize("stage", ["train", "finetune"])
def test_every_checkpoint_entry_is_read(tmp_path, tiny_data, tiny_checkpoint, stage):
    # a final checkpoint without any one of its top-level entries is rejected
    # or changes what eval or finetune make of it: the file holds no state
    # that only its writer sees
    path = Path(tiny_checkpoint)
    if stage == "finetune":
        cfg = write_config(tmp_path / "tune.json", {"checkpoint.path": tiny_checkpoint,
                                                    **TINY_RUNS["finetune"]})
        assert main(["finetune", "--config", cfg, "--out", str(tmp_path / "tune")]) == 0
        path = tmp_path / "tune" / "checkpoint_final.json"
    doc = json.loads(path.read_text())
    full = _outputs(tmp_path, path, tiny_data, "full")
    unread = []
    for key in sorted(doc):
        stripped = tmp_path / f"without-{key}.json"
        stripped.write_text(json.dumps({k: v for k, v in doc.items() if k != key}))
        if _outputs(tmp_path, stripped, tiny_data, f"without-{key}") == full:
            unread.append(key)
    assert unread == []


def test_finetune_missing_checkpoint_key_is_config_error(tmp_path):
    cfg = write_config(tmp_path / "f.json", {"ppo.iterations": 1})
    assert main(["finetune", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_dataset_chunk_mismatch_is_config_error(tmp_path):
    # dataset synthesized with a different horizon than the training request
    data = synth_dir(tmp_path)
    meta = json.loads((data / "dataset_meta.json").read_text())
    meta["chunk_spec"]["horizon"] = 3  # breaks exec_len bound 1 <= 2 <= 3-1+1
    meta["chunk_spec"]["exec_len"] = 3
    (data / "dataset_meta.json").write_text(json.dumps(meta))
    code, _ = train_dir(tmp_path, data, "bad", steps=1)
    assert code == 2


def test_rerunning_from_the_config_snapshot_reproduces_outputs(tmp_path):
    data = synth_dir(tmp_path)
    _, run = train_dir(tmp_path, data, "orig", steps=5)
    snapshot = run / "config.json"
    out2 = tmp_path / "from_snapshot"
    assert main(["train", "--config", str(snapshot), "--out", str(out2)]) == 0
    assert (run / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
    assert (run / "checkpoint_final.json").read_bytes() == \
        (out2 / "checkpoint_final.json").read_bytes()


STAGE1_ENTRIES = {"format_version", "chunk_spec", "obs_dim", "latent_dim", "hidden_dim",
                  "params", "ema_params"}


def test_every_stage1_checkpoint_holds_the_backbone_and_its_ema_alone(tmp_path, tiny_data):
    # the periodic files and the final one are written by one call: the final
    # file of a run whose length is a multiple of checkpoint_every is its last
    # periodic file
    code, run = train_dir(tmp_path, tiny_data, steps=4, extra={"train.checkpoint_every": 2})
    assert code == 0
    paths = sorted(run.glob("checkpoint_*.json"))
    assert [path.name for path in paths] == \
        ["checkpoint_final.json", "checkpoint_step2.json", "checkpoint_step4.json"]
    assert all(set(json.loads(path.read_text())) == STAGE1_ENTRIES for path in paths)
    assert (run / "checkpoint_final.json").read_bytes() == \
        (run / "checkpoint_step4.json").read_bytes()


def test_pretrained_checkpoint_eval_band_across_seeds(tmp_path):
    # recorded once for the seed-42 Stage-1 recipe; reruns must stay within
    # five percentage points of it on fresh evaluation seeds
    recorded_success = 0.92
    cfg = write_config(tmp_path / "synth.json", {
        "synth.conditions": 96, "synth.samples_per_condition": 4, "synth.seed": 0})
    data = tmp_path / "data"
    assert main(["synth", "--config", cfg, "--out", str(data)]) == 0
    tcfg = write_config(tmp_path / "train.json", {
        "data.path": str(data / "dataset.csv"), "train.steps": 60,
        "train.learning_rate": 3e-3, "train.warmup_steps": 50, "train.seed": 42,
        "model.latent_dim": 4, "drift.temperatures": [0.7]})
    run = tmp_path / "run42"
    assert main(["train", "--config", tcfg, "--out", str(run)]) == 0
    for eval_seed in (1000, 2000, 3000):
        ecfg = write_config(tmp_path / f"eval{eval_seed}.json", {
            "checkpoint.path": str(run / "checkpoint_final.json"),
            "eval.reward_mode": "sparse", "eval.episodes": 100,
            "eval.seed": eval_seed, "eval.use_ema": False})
        out = tmp_path / f"eval{eval_seed}"
        assert main(["eval", "--config", ecfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert abs(report["success_rate"] - recorded_success) <= 0.05, eval_seed


def test_finetune_paired_anchor_run_shrinks_anchor_loss(tmp_path):
    data = synth_dir(tmp_path)
    _, run = train_dir(tmp_path, data, steps=6)
    finals = {}
    for weight in (1e6, 0.0):
        cfg = write_config(tmp_path / f"ft{weight}.json", {
            "checkpoint.path": str(run / "checkpoint_final.json"),
            "ppo.iterations": 1, "ppo.rollout_length": 32,
            "ppo.anchor_weight": weight, "ppo.seed": 9})
        out = tmp_path / f"ft_{weight}"
        assert main(["finetune", "--config", cfg, "--out", str(out)]) == 0
        last = (out / "metrics.csv").read_text().strip().splitlines()[-1]
        finals[weight] = float(last.split(",")[-1])
    assert finals[1e6] < finals[0.0]


def test_log_env_var_validated(tmp_path, monkeypatch):
    monkeypatch.setenv("DRIFTKIT_LOG", "loud")
    cfg = write_config(tmp_path / "s.json", {"synth.conditions": 2})
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    monkeypatch.setenv("DRIFTKIT_LOG", "debug")
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o2")]) == 0
