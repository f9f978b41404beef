"""What the benchmark reads off the package still means what it assumes.

``bench/spans.py`` wraps driftkit functions and methods from outside the
package, reading each one from its owner's own ``__dict__``: a module-level
name (``driftkit.actor.matmul``) or a method defined on the class itself.  A
rename, a dropped import or a method moved to a helper makes
``Tracer.install()`` raise ``KeyError`` in a traced benchmark run; the first
test catches that without running the benchmark.  The others pin the run
defaults the benchmark reads and what its eval phase counts as a decision.
The last two run every workload of ``BENCHMARK.json`` in-process at the
benchmark's ``tiny`` profile, so a change to a call the benchmark makes
fails here and not only in a benchmark run, and a phase whose Python call
count differs between two rounds (a count the wall clock's noise cannot
hide) fails too.
"""

from __future__ import annotations

import contextlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

import driftkit
import driftkit.checkpoint  # noqa: F401 -- the tracer patches it; the package does not import it
from driftkit.actor import DEFAULT_LOG_STD_INIT
from driftkit.autodiff import Tensor
from driftkit.config import FINETUNE_KEYS
from driftkit.generator import ChunkSpec, Generator

from .oracles import evaluate_policy_loop, profiled_calls, steering_actor

ROOT = Path(__file__).resolve().parent.parent


def load_bench(name: str):
    """``bench/<name>.py``, loaded by path: the bench directory is not a package.

    The module is registered in ``sys.modules`` first, as an import would,
    because its dataclasses look their module up there.
    """
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_is_defined_on_its_owner():
    spans = load_bench("spans")
    points = [(owner, attr) for owner, attr, _, _ in spans._patch_points(driftkit)]
    points.append((driftkit.envs.PointMassEnv, "micro_step"))
    missing = [f"{getattr(owner, '__qualname__', owner.__name__)}.{attr}"
               for owner, attr in points if attr not in vars(owner)]
    assert not missing
    originals = [vars(owner)[attr] for owner, attr in points]
    with spans.Tracer(driftkit, run_id="contract"):
        pass
    assert [vars(owner)[attr] for owner, attr in points] == originals


def test_finetune_keys_hold_the_run_defaults_the_benchmark_reads():
    # bench/workloads.py takes ``FINETUNE_KEYS[key][1]`` as the CLI default
    assert FINETUNE_KEYS["ppo.use_ema"] == (bool, None)
    assert FINETUNE_KEYS["ppo.log_std_init"] == (float, DEFAULT_LOG_STD_INIT)
    assert FINETUNE_KEYS["ppo.reward_mode"] == (str, "sparse")
    assert all(len(entry) == 2 for entry in FINETUNE_KEYS.values())


def test_the_default_use_ema_restores_the_ema_the_benchmark_loads(tmp_path):
    # the setup round restores its pretrained file with ``use_ema=True`` and
    # the learn round with the ``ppo.use_ema`` default: both load the EMA bits
    gen = Generator(ChunkSpec(horizon=4, action_dim=2, history_len=1, exec_len=2),
                    obs_dim=2, latent_dim=3, hidden_dim=5)
    path = tmp_path / "pretrained.json"
    driftkit.checkpoint.save_checkpoint(
        path, gen, ema_params={name: arr / 2 for name, arr in gen.param_arrays().items()})
    doc = driftkit.checkpoint.load_checkpoint(path)
    restored = [driftkit.checkpoint.restore_generator(doc, use_ema=use_ema).params.data.vector
                for use_ema in (FINETUNE_KEYS["ppo.use_ema"][1], True)]
    assert restored[0].tobytes() == restored[1].tobytes()
    assert restored[0].tobytes() != gen.params.data.vector.tobytes()


def test_eval_decisions_are_the_generators_nfe_delta():
    # called as bench/workloads.py::eval_round does: its eval_decisions_per_s
    # divides this nfe_count delta by the call's wall time, and counts
    # nfe_violations as failed operations
    dk = driftkit
    actor = steering_actor()
    spec = actor.spec
    generator = actor.generator
    before = generator.nfe_count
    report = dk.ppo.evaluate_policy(
        lambda: dk.envs.PointMassEnv(spec, reward_mode="sparse"),
        actor, 20, 5)
    decisions = generator.nfe_count - before
    _, expected, _ = evaluate_policy_loop(
        lambda: dk.envs.PointMassEnv(spec, reward_mode="sparse"), actor, 20, 5)
    assert decisions == expected
    assert report["nfe_violations"] == 0


def test_forward_info_reads_a_real_generator_forward():
    # the tracer counts the live forwards under ppo.update by whether
    # Generator.forward's chunk recorded a tape, so forward stays tape-only
    spans = load_bench("spans")
    gen = Generator(ChunkSpec(horizon=4, action_dim=2, history_len=1, exec_len=2),
                    obs_dim=2, latent_dim=3, hidden_dim=5)
    obs, z = Tensor(np.ones((3, 2))), Tensor(np.ones((3, 3)))
    assert spans._forward_info((gen, obs, z), gen.forward(obs, z)) == (3, True)


def test_every_benchmark_workload_runs_clean_and_repeats_its_digests(tmp_path):
    workloads = load_bench("workloads")
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    digests = {}
    for traced in (False, True):
        tracer = (load_bench("spans").Tracer(driftkit, run_id="contract") if traced
                  else contextlib.nullcontext())
        with tracer:
            for name in names:
                work = workloads.Workload(driftkit, name, 1, workloads.PROFILES["tiny"],
                                          tmp_path)
                phases = (work.setup, work.learn_round, work.deploy_round, work.eval_round)
                rounds = [[phase() for phase in phases] for _ in range(2)]
                for first, second in zip(*rounds):
                    assert first.failed == second.failed == 0, (name, traced)
                    assert first.digest == second.digest, (name, traced)
                digests[name, traced] = [result.digest for result in rounds[0]]
    for name in names:
        assert digests[name, True] == digests[name, False], name


def test_every_benchmark_phase_repeats_its_call_count(tmp_path):
    workloads = load_bench("workloads")
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    for name in names:
        work = workloads.Workload(driftkit, name, 1, workloads.PROFILES["tiny"], tmp_path)
        phases = {"setup": work.setup, "learn": work.learn_round,
                  "deploy": work.deploy_round, "eval": work.eval_round}
        for phase in phases.values():  # warm-up: imports, caches, the kept state
            phase()
        rounds = [{key: profiled_calls(phase).total_calls for key, phase in phases.items()}
                  for _ in range(2)]
        assert rounds[0] == rounds[1], name
