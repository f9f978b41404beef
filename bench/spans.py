"""Span tracing of driftkit's public functions, installed from outside the package.

``Tracer.install()`` replaces each name in ``_patch_points`` with a wrapper that
records a span (name, start, end, parent index, optional info) and
``Tracer.uninstall()`` puts every original object back.  The names patched are
the ones the *calling* module looks up at call time (``driftkit.training.backward``
rather than ``driftkit.autodiff.backward``), and class attributes for methods.
Spans live in memory; ``dump()`` writes them out when the run ends.

Self time is a span's duration minus the durations of its direct children
(spans are properly nested on one thread, so children never overlap).
"""

from __future__ import annotations

import gzip
import json
import os
import time
from contextlib import contextmanager

BENCH_WRAPPER_ATTR = "__bench_wrapper__"
PROBE = "bench.probe"

# Span names whose per-call durations are kept for percentiles.
LATENCY_SPANS = ("generator.generate", "actor.deploy", "envs.reset", "envs.step_prefix")


def _forward_info(args, out):
    """(rows, whether the forward recorded a tape) of a ``Generator.forward`` call."""
    return args[1].shape[0], bool(out[0].requires_grad)


def _ratio_dev(args, stats):
    """Largest distance of a PPO update's epoch-0 ratios from exactly 1."""
    ratios = stats.first_epoch_ratios
    return float(abs(ratios - 1.0).max()) if ratios is not None and ratios.size else 0.0


def _patch_points(dk):
    """(owner, attribute, span name, info function or None) for every wrapped name.

    ``info(args, result)`` returns a small value stored on the span.  The
    backward entries are wrapped by ``Tracer._wrap_backward`` instead.
    """
    m = dk
    return [
        # autodiff: backward is looked up by its two callers; matmul by the three
        # modules that build forward graphs.
        (m.training, "backward", "autodiff.backward", None),
        (m.ppo, "backward", "autodiff.backward", None),
        (m.generator, "matmul", "autodiff.matmul_fwd", None),
        (m.actor, "matmul", "autodiff.matmul_fwd", None),
        (m.ppo, "matmul", "autodiff.matmul_fwd", None),
        # generator
        (m.generator.Generator, "forward", "generator.forward", _forward_info),
        (m.training, "sample_hypotheses", "generator.sample_hypotheses", None),
        (m.generator.Generator, "generate", "generator.generate", None),
        # drift
        (m.training, "drift_loss", "drift.loss", None),
        (m.drift, "build_reference_pool", "drift.pool", None),
        (m.drift, "compute_drift_field", "drift.field", None),
        (m.drift, "pairwise_distances", "drift.distances", None),
        (m.drift, "symmetric_affinity", "drift.affinity", None),
        (m.drift, "balanced_coefficients", "drift.coefficients", None),
        (m.drift, "per_scale_force", "drift.force", None),
        (m.drift, "rms_normalize", "drift.rms", None),
        (m.drift, "fixed_point_loss", "drift.fixed_point_loss", None),
        # training
        (m.training, "drift_train_step", "training.step", None),
        (m.training.AdamW, "step", "training.adamw", None),
        (m.training, "ema_update", "training.ema", None),
        (m.training, "grad_clip", "training.grad_clip", None),
        # actor
        (m.actor.GaussianActor, "forward", "actor.forward", None),
        (m.ppo, "prefix_log_prob", "actor.log_prob", None),
        (m.ppo, "prefix_entropy", "actor.entropy", None),
        (m.actor.GaussianActor, "deploy_action", "actor.deploy", None),
        # ppo
        (m.ppo, "collect_rollouts", "ppo.collect", lambda args, out: len(out)),
        (m.ppo, "compute_gae", "ppo.gae", None),
        (m.ppo, "ppo_update", "ppo.update", _ratio_dev),
        (m.ppo, "anchor_loss", "ppo.anchor", None),
        (m.ppo.Critic, "forward", "ppo.critic", None),
        # envs
        (m.envs.PointMassEnv, "reset", "envs.reset", None),
        (m.envs.PointMassEnv, "step_prefix", "envs.step_prefix", None),
        (m.envs, "synth_multimodal", "envs.synth", None),
        # checkpoint
        (m.checkpoint, "save_checkpoint", "checkpoint.save",
         lambda args, out: os.path.getsize(args[0])),
        (m.checkpoint, "load_checkpoint", "checkpoint.load", None),
    ]


class Tracer:
    """Records spans for one workload run; ``run_id`` tags every span it dumps."""

    def __init__(self, dk, run_id: str):
        self.dk = dk
        self.run_id = run_id
        self.spans: list = []
        self.stack: list[int] = []
        self.micro_steps = 0
        self.saved: list[tuple[object, str, object]] = []
        self.segments: list[dict] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float, info=None) -> None:
        self.stack.pop()
        parent = self.stack[-1] if self.stack else -1
        self.spans[idx] = (name, start, time.perf_counter(), parent, info)

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of benchmark code."""
        idx = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, start)

    def _wrap(self, fn, name: str, info):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx, name, start)
            if info is not None:
                tracer.spans[idx] = tracer.spans[idx][:4] + (info(args, out),)
            return out

        return _mark(wrapper, fn)

    def _wrap_backward(self, fn):
        """Backward wrapper that first counts the tape nodes in a probe span."""
        tracer = self
        topo_nodes = self.dk.autodiff.topo_nodes
        clock = time.perf_counter

        def wrapper(loss):
            idx = tracer._open(PROBE)
            start = clock()
            nodes = len(topo_nodes(loss))
            tracer._close(idx, PROBE, start)
            idx = tracer._open("autodiff.backward")
            start = clock()
            try:
                return fn(loss)
            finally:
                tracer._close(idx, "autodiff.backward", start, nodes)

        return _mark(wrapper, fn)

    def _wrap_counter(self, fn):
        """Counts env micro-steps without a span: there are eight per decision."""
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.micro_steps += 1
            return fn(*args, **kwargs)

        return _mark(wrapper, fn)

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        if self.saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, info in _patch_points(self.dk):
            original = owner.__dict__[attr]
            if name == "autodiff.backward":
                self._replace(owner, attr, self._wrap_backward(original))
            else:
                self._replace(owner, attr, self._wrap(original, name, info))
        env = self.dk.envs.PointMassEnv
        self._replace(env, "micro_step", self._wrap_counter(env.__dict__["micro_step"]))

    def _replace(self, owner, attr: str, wrapper) -> None:
        self.saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- segments --------------------------------------------------------

    def take_segment(self, label: str) -> dict:
        """Summarise and clear the spans recorded since the last segment."""
        if self.stack:
            raise RuntimeError("segment taken inside an open span")
        seg = summarise(self.spans, self.micro_steps)
        seg["label"] = label
        self.segments.append({"label": label, "spans": self.spans})
        self.spans = []
        self.micro_steps = 0
        return seg

    def dump(self, path) -> None:
        """Write every recorded segment's spans as gzip-compressed JSON."""
        doc = {"run_id": self.run_id,
               "fields": ["name", "start", "end", "parent", "info"],
               "segments": self.segments}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def summarise(spans: list, micro_steps: int = 0) -> dict:
    """Per-name call counts, self milliseconds, latencies and span info.

    Also returns, per top-level span, the share of its wall time inside child
    library spans, and the work nested under ``ppo.update``.
    """
    n = len(spans)
    child_time = [0.0] * n
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    latency_us: dict[str, list[float]] = {k: [] for k in LATENCY_SPANS}
    info: dict[str, list] = {}
    probe_s: dict[int, float] = {}
    for i, (name, start, end, parent, extra) in enumerate(spans):
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        self_ms[name] = self_ms.get(name, 0.0) + 1e3 * (dur - child_time[i])
        if name in latency_us:
            latency_us[name].append(1e6 * dur)
        if extra is not None:
            info.setdefault(name, []).append(extra)
        if name == PROBE:
            top = _top_ancestor(spans, i)
            probe_s[top] = probe_s.get(top, 0.0) + dur
    # Coverage of a top-level span: the share of its wall time spent inside
    # library spans, with the tracer's own probes removed from both sides.
    coverage: dict[str, float] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent < 0 and end > start:
            probes = probe_s.get(i, 0.0)
            coverage[name] = (child_time[i] - probes) / (end - start - probes)
    return {"calls": calls, "self_ms": self_ms, "latency_us": latency_us,
            "info": info, "coverage": coverage, "micro_steps": micro_steps,
            "under_update": _under(spans, "ppo.update")}


def _mark(wrapper, fn):
    setattr(wrapper, BENCH_WRAPPER_ATTR, True)
    wrapper.__wrapped__ = fn
    return wrapper


def _top_ancestor(spans: list, i: int) -> int:
    while spans[i][3] >= 0:
        i = spans[i][3]
    return i


def _under(spans: list, ancestor: str) -> dict:
    """Backward calls and tape-recording generator forwards nested under ``ancestor``."""
    out = {"backward": 0, "live_forwards": 0}
    for name, _, _, parent, extra in spans:
        if name == "autodiff.backward":
            key = "backward"
        elif name == "generator.forward" and extra[1]:
            key = "live_forwards"
        else:
            continue
        p = parent
        while p >= 0:
            if spans[p][0] == ancestor:
                out[key] += 1
                break
            p = spans[p][3]
    return out
