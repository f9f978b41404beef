"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py          # or: python3 -m pytest bench/selftest.py

Checks that every workload runs, that each mode prints exactly its registered
metrics with their units, that a rerun with the same seed repeats every output
digest, that tracing restores every patched name, that ``BENCHMARK.json`` is
the one the registry generates, and that the benchmark refuses to run without
the driftkit sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import spans
import spec
from workloads import PROFILES, WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TIMEOUT_S = 120


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--profile", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def _parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record = next(json.loads(line[len("record "):]) for line in lines
                  if line.startswith("record "))
    return record, json.loads(lines[-1])


def _check_result(result: dict, registry) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = {name: unit for name, unit, *_ in registry}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, set(got) ^ set(expected)
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float), name


def test_benchmark_json_matches_registry_and_contract():
    text = (ROOT / "BENCHMARK.json").read_text()
    assert text == spec.benchmark_json()
    assert len(text.encode()) <= 64 * 1024
    doc = json.loads(text)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}
    assert 1 <= doc["run_seconds"] <= 60
    name_re = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit_re = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(name_re.fullmatch(n) for n in names), names
    assert 2 <= len(doc["workloads"]) <= 8
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(doc["end_to_end"]) <= 16 and 1 <= len(doc["per_layer"]) <= 128
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert unit_re.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_workloads_run_and_repeat_their_digests():
    for workload in WORKLOADS:
        first, result = _parse(_run(workload, seed=5, trace=0))
        _check_result(result, spec.END_TO_END)
        second, _ = _parse(_run(workload, seed=5, trace=0))
        assert first["digest"] == second["digest"], workload
        assert first["phase_digests"] == second["phase_digests"], workload
        assert first["fail_frac"] == 0.0
        traced, result = _parse(_run(workload, seed=5, trace=1))
        _check_result(result, spec.PER_LAYER)
        assert traced["digest"] == first["digest"], workload
        assert result["metrics"]["ppo.epoch0_ratio_max_dev"]["value"] == 0.0


def test_tracing_restores_every_patched_name():
    sys.path.insert(0, str(BENCH))
    import run
    dk = run.import_driftkit()
    run.RESULTS.mkdir(exist_ok=True)
    owners = [getattr(dk, m) for m in run.MODULES]
    owners += [v for m in owners for v in vars(m).values() if isinstance(v, type)]
    before = [dict(vars(o)) for o in owners]
    work = Workload(dk, "finetune_deploy", 1, PROFILES["tiny"], run.RESULTS)
    tracer = spans.Tracer(dk, run_id="selftest")
    with tracer, tracer.span("phase.all"):
        assert getattr(dk.ppo.backward, spans.BENCH_WRAPPER_ATTR, False)
        work.setup()
        for fn in (work.learn_round, work.deploy_round, work.eval_round):
            fn()
    summary = tracer.take_segment("all")
    for owner, snapshot in zip(owners, before):
        now = dict(vars(owner))
        assert now.keys() == snapshot.keys(), owner
        for name, value in now.items():
            assert value is snapshot[name], f"{owner!r}.{name} not restored"
            assert not getattr(value, spans.BENCH_WRAPPER_ATTR, False)
    for name in ("autodiff.backward", "generator.forward", "actor.deploy", "ppo.update",
                 "envs.step_prefix", "checkpoint.save", "checkpoint.load", "envs.synth"):
        assert summary["calls"].get(name, 0) > 0, name
    assert summary["under_update"]["live_forwards"] > 0


def test_refuses_to_run_without_sources():
    (BENCH / "results").mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="bare-", dir=BENCH / "results"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", run_dir)
        (run_dir / "bench").mkdir()
        for path in BENCH.glob("*.py"):
            shutil.copy(path, run_dir / "bench")
        proc = _run("stage1_table", seed=0, trace=0, cwd=run_dir)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(run_dir)


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
