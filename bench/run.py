"""driftkit benchmark: one workload per process, every metric printed with its unit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --write-spec        # regenerate BENCHMARK.json

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` alternates untraced and traced passes (one round of each phase)
and reports the per-layer metrics, the tracing overhead and the span coverage.
``--profile tiny`` shrinks every round for the self-test (bench/selftest.py).
The last stdout line is the result object; a ``record`` line before it and
``bench/results/`` hold the provenance, output digests and sample counts.
The sources measured are the checkout's own ``src/driftkit``.
"""

from __future__ import annotations

import os

# BLAS must see its thread count before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import spec  # noqa: E402
from calibration import SpeedProbe  # noqa: E402
from workloads import PHASE_SHARE, PROFILES, WORKLOADS, Workload, clock  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"
MODULES = ("autodiff", "drift", "generator", "training", "actor", "ppo", "envs",
           "checkpoint", "config")


class BenchError(RuntimeError):
    pass


def import_driftkit():
    """Import driftkit from this checkout's ``src/``, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "driftkit" / "__init__.py").is_file():
        raise BenchError(f"no driftkit sources under {src}")
    sys.path.insert(0, str(src))
    dk = types.SimpleNamespace(**{m: importlib.import_module(f"driftkit.{m}")
                                  for m in MODULES})
    found = Path(dk.generator.__file__).resolve().parent
    if found != (src / "driftkit").resolve():
        raise BenchError(f"driftkit imported from {found}, not from {src}")
    return dk


# -- provenance ---------------------------------------------------------


def _git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree; read directly, no subprocess."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _blas() -> dict | None:
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 2 prints instead of returning a dict
        return None
    blas = deps.get("blas", {})
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def environment(args) -> dict:
    src = ROOT / "src" / "driftkit"
    h = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "src_sha256": h.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "profile": args.profile,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(samples, q: float) -> float:
    return float(np.percentile(np.asarray(samples), q)) if len(samples) else 0.0


# -- checks -------------------------------------------------------------


class Ledger:
    """Attempted and failed operations, and the digest each phase must repeat."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.mismatches: list[str] = []

    def add(self, phase: str, result) -> None:
        self.attempted += result.attempted
        failed = result.failed
        expected = self.digests.setdefault(phase, result.digest)
        if result.digest != expected:
            self.mismatches.append(phase)
            failed = result.attempted
        self.failed += failed

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.mismatches

    def workload_digest(self) -> str:
        return hashlib.sha256("".join(self.digests[p] for p in sorted(self.digests))
                              .encode()).hexdigest()


def phase_functions(work: Workload) -> dict:
    return {"setup": work.setup, "learn": work.learn_round,
            "deploy": work.deploy_round, "eval": work.eval_round}


def run_interleaved(work: Workload, seconds: float, ledger: Ledger) -> dict[str, list]:
    """Rounds of every phase, interleaved so that each phase samples the whole run.

    The first round of each phase warms caches and is not timed.
    """
    fns = phase_functions(work)
    for phase, fn in fns.items():
        ledger.add(phase, fn())
    budgets = {p: share * seconds for p, share in PHASE_SHARE[work.name].items()}
    rounds = {p: [] for p in fns}
    spent = {p: 0.0 for p in fns}
    probe = SpeedProbe()
    start = clock()
    while True:
        phase = min(fns, key=lambda p: spent[p] / budgets[p])
        if spent[phase] >= budgets[phase]:
            return rounds
        t0 = clock()
        result = probe.run(fns[phase])
        spent[phase] += clock() - t0
        result.notes["t"] = t0 - start
        ledger.add(phase, result)
        rounds[phase].append(result)


# A best deploy or eval round whose probes show the machine this much slower
# than its fast state is rescaled; below it, probe noise would move calm runs.
SLOW_SPELL = 1.15


def e2e_metrics(rounds: dict[str, list], rescale: bool = True) -> dict:
    """End-to-end metrics: the best round of each phase (see bench/METRICS.md).

    Every round of a phase does identical work, so the best round is the
    minimum-of-repeats estimate of its cost.  Deploy and eval run batch-1
    forwards, the probe kernel's own mix (bench/calibration.py): when even
    their best round ran in a slow spell, its cost is divided by the probe's
    slowdown.  Set-up and learner rounds are batched work the probe does not
    track, so they are never rescaled.
    """

    def best(rs, value, rescalable=False):
        r = min(rs, key=value)
        slowdown = r.notes["slowdown"]
        if rescale and rescalable and slowdown >= SLOW_SPELL:
            return value(r) / slowdown
        return value(r)

    return {
        "setup_s": best(rounds["setup"], lambda r: r.seconds),
        "learner_steps_per_s": 1.0 / best(rounds["learn"], lambda r: r.seconds / r.ops),
        "deploy_decision_ms_p50": best(
            rounds["deploy"], lambda r: percentile(r.samples_ms, 50), rescalable=True),
        "eval_decisions_per_s": 1.0 / best(
            rounds["eval"], lambda r: r.seconds / r.ops, rescalable=True),
    }


def details(rounds: dict[str, list]) -> dict:
    """Sample counts and the PPO phase split, recorded beside the metrics."""
    learn = rounds["learn"]
    out = {f"{p}_rounds": len(rs) for p, rs in rounds.items()}
    out["learn_ops"] = sum(r.ops for r in learn)
    decisions = [x for r in rounds["deploy"] for x in r.samples_ms]
    out["deploy_decisions"] = len(decisions)
    out["deploy_decisions_per_round_min"] = min(r.ops for r in rounds["deploy"])
    # Pooled over the run, so it mixes the machine's fast and slow spells.
    out["deploy_decision_ms_p50_pooled"] = percentile(decisions, 50)
    out["deploy_decision_ms_p99_pooled"] = percentile(decisions, 99)
    out["eval_decisions"] = sum(r.ops for r in rounds["eval"])
    collect = [x for r in learn for x in r.phases_ms.get("collect", [])]
    update = [x for r in learn for x in r.phases_ms.get("update", [])]
    if collect:
        out["ppo_iterations"] = len(collect)
        out["ppo_collect_ms_p50"] = statistics.median(collect)
        out["ppo_update_ms_p50"] = statistics.median(update)
        out["ppo_iter_ms_p50"] = statistics.median(c + u for c, u in zip(collect, update))
        out["ppo_epoch0_ratio_max_dev"] = max(r.notes["epoch0_ratio_max_dev"] for r in learn)
    return out


# -- untraced run -------------------------------------------------------


def run_untraced(work: Workload, seconds: float, ledger: Ledger) -> tuple[dict, dict]:
    rounds = run_interleaved(work, seconds, ledger)
    metrics = e2e_metrics(rounds)
    metrics["peak_rss_mb"] = peak_rss_mb()
    info = details(rounds)
    info["best_round_raw"] = e2e_metrics(rounds, rescale=False)
    # Per round: start (s into the run), probe slowdown, ops/s, and the p50 and
    # p99 of its samples (ms).
    info["series"] = {p: [(r.notes["t"], r.notes["slowdown"], r.ops / r.seconds,
                           percentile(r.samples_ms, 50), percentile(r.samples_ms, 99))
                          for r in rs]
                      for p, rs in rounds.items()}
    return metrics, info


# -- traced run ---------------------------------------------------------


def run_traced(work: Workload, seconds: float, ledger: Ledger,
               tracer: spans.Tracer) -> tuple[dict, dict]:
    """Alternate untraced and traced passes, one round of every phase per pass.

    Per-layer values are per traced pass; the end-to-end values of the two
    kinds of pass give the tracing overhead.
    """
    fns = phase_functions(work)

    def traced(phase, fn):
        with tracer, tracer.span(f"phase.{phase}"):
            return fn()

    def one_pass(trace: bool) -> dict:
        out = {}
        for phase, fn in fns.items():
            if trace:
                out[phase] = probe.run(lambda: traced(phase, fn))
                if phase == "setup":
                    setups.append(tracer.take_segment(f"setup{len(setups) + 1}"))
            else:
                out[phase] = probe.run(fn)
            ledger.add(phase, out[phase])
        if trace:
            timed.append(tracer.take_segment(f"pass{len(timed) + 1}"))
        return out

    setups, timed = [], []
    probe = SpeedProbe()
    one_pass(False)  # warm-up
    deadline = clock() + seconds
    plain, with_spans = [], []
    while len(with_spans) < 2 or clock() < deadline:
        plain.append(one_pass(False))
        with_spans.append(one_pass(True))
    base = e2e_metrics({p: [x[p] for x in plain] for p in spec.PHASES})
    with_trace = e2e_metrics({p: [x[p] for x in with_spans] for p in spec.PHASES})
    metrics = layer_metrics(setups, timed)
    for name in spec.OVERHEAD_OF:
        ratio = with_trace[name] / base[name]
        if name.endswith("_per_s"):
            ratio = 1.0 / ratio  # express every overhead as extra time
        metrics[f"trace.overhead_frac.{name}"] = ratio - 1.0
    info = {"traced_passes": len(with_spans), "untraced": base, "traced": with_trace}
    return metrics, info


def layer_metrics(setups: list[dict], segments: list[dict]) -> dict:
    """Per-layer metrics: medians over traced passes, pooled latency percentiles.

    ``segments`` hold the timed phases (learn, deploy, eval) of each traced
    pass and ``setups`` its set-up; only the set-up layers read the latter.
    """

    def med(fn, segs=segments):
        return float(statistics.median(fn(s) for s in segs))

    def self_ms(span, segs=segments):
        return med(lambda s: s["self_ms"].get(span, 0.0), segs)

    def calls(span):
        return med(lambda s: s["calls"].get(span, 0))

    def pooled(span, q):
        return percentile([x for s in segments for x in s["latency_us"][span]], q)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    m["autodiff.backward_calls"] = calls("autodiff.backward")
    m["autodiff.backward_self_ms"] = self_ms("autodiff.backward")
    m["autodiff.tape_nodes_per_backward"] = med(
        lambda s: ratio(sum(s["info"].get("autodiff.backward", [])),
                        s["calls"].get("autodiff.backward", 0)))
    m["autodiff.matmul_fwd_calls"] = calls("autodiff.matmul_fwd")
    m["autodiff.matmul_fwd_self_ms"] = self_ms("autodiff.matmul_fwd")
    m["generator.forward_calls"] = calls("generator.forward")
    m["generator.forward_rows"] = med(
        lambda s: sum(rows for rows, _ in s["info"].get("generator.forward", [])))
    for span in ("generator.forward", "generator.sample_hypotheses", "generator.generate"):
        m[f"{span}_self_ms"] = self_ms(span)
    m["generator.generate_us_p50"] = pooled("generator.generate", 50)
    # One geometry pipeline per (slice, temperature): one affinity each.
    m["drift.pipelines_per_step"] = med(
        lambda s: ratio(s["calls"].get("drift.affinity", 0), s["calls"].get("training.step", 0)))
    for part in ("loss", "pool", "field", "distances", "affinity", "coefficients",
                 "force", "rms", "fixed_point_loss"):
        m[f"drift.{part}_self_ms"] = self_ms(f"drift.{part}")
    for part in ("step", "adamw", "ema", "grad_clip"):
        m[f"training.{part}_self_ms"] = self_ms(f"training.{part}")
    for part in ("forward", "log_prob", "entropy", "deploy"):
        m[f"actor.{part}_self_ms"] = self_ms(f"actor.{part}")
    m["actor.deploy_us_p50"] = pooled("actor.deploy", 50)
    m["actor.deploy_us_p99"] = pooled("actor.deploy", 99)
    m["ppo.decisions"] = med(lambda s: sum(s["info"].get("ppo.collect", [])))
    m["ppo.minibatches"] = med(lambda s: s["under_update"]["backward"])
    for part in ("collect", "gae", "update", "anchor", "critic"):
        m[f"ppo.{part}_self_ms"] = self_ms(f"ppo.{part}")
    m["ppo.live_forwards_per_minibatch"] = med(
        lambda s: ratio(s["under_update"]["live_forwards"], s["under_update"]["backward"]))
    m["ppo.epoch0_ratio_max_dev"] = max(
        (x for s in segments for x in s["info"].get("ppo.update", [])), default=0.0)
    for part in ("reset", "step_prefix"):
        m[f"envs.{part}_calls"] = calls(f"envs.{part}")
        m[f"envs.{part}_self_ms"] = self_ms(f"envs.{part}")
        m[f"envs.{part}_us_p50"] = pooled(f"envs.{part}", 50)
    m["envs.micro_steps"] = med(lambda s: s["micro_steps"])
    m["envs.synth_self_ms"] = self_ms("envs.synth", setups)
    m["checkpoint.save_self_ms"] = self_ms("checkpoint.save", setups)
    m["checkpoint.load_self_ms"] = self_ms("checkpoint.load", setups)
    m["checkpoint.bytes"] = med(lambda s: sum(s["info"].get("checkpoint.save", [])), setups)
    for phase in spec.PHASES:
        m[f"trace.coverage_frac.{phase}"] = med(
            lambda s: s["coverage"].get(f"phase.{phase}", 0.0),
            setups if phase == "setup" else segments)
    return m


# -- entry --------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=sorted(PROFILES), default="full")
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from bench/spec.py and exit")
    args = parser.parse_args(argv)
    if not args.write_spec and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(spec.benchmark_json())
        return 0
    try:
        dk = import_driftkit()
    except (BenchError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = Workload(dk, args.workload, args.seed, PROFILES[args.profile], RESULTS)
    ledger = Ledger()
    if args.trace:
        tracer = spans.Tracer(dk, run_id=f"{tag}-pid{os.getpid()}")
        metrics, info = run_traced(work, args.seconds, ledger, tracer)
        tracer.dump(RESULTS / f"{tag}-spans.json.gz")
        names = [n for n, *_ in spec.PER_LAYER]
    else:
        metrics, info = run_untraced(work, args.seconds, ledger)
        names = [n for n, *_ in spec.END_TO_END]
    record = {
        "environment": environment(args),
        "digest": ledger.workload_digest(),
        "phase_digests": ledger.digests,
        "digest_mismatches": ledger.mismatches,
        "fail_frac": ledger.failed / max(1, ledger.attempted),
        "details": info,
    }
    result = {
        "correct": ledger.correct,
        "attempted": max(1, ledger.attempted),
        "failed": ledger.failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": spec.UNITS[n]} for n in names},
    }
    (RESULTS / f"{tag}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=2, sort_keys=True) + "\n")
    for n in names:
        print(f"{n:<42} {metrics[n]:>14.6g} {spec.UNITS[n]}")
    printed = dict(record, details={k: v for k, v in info.items() if k != "series"})
    print("record " + json.dumps(printed, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
