"""Checkpoint documents: exact round-trips and byte-stable serialization."""

from __future__ import annotations

import io
import json
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from driftkit import checkpoint
from driftkit.actor import GaussianActor
from driftkit.autodiff import AutodiffError
from driftkit.checkpoint import load_checkpoint, restore_generator, save_checkpoint
from driftkit.drift import DriftConfig
from driftkit.envs import synth_multimodal
from driftkit.generator import ChunkSpec, Generator, SpecError, typed
from driftkit.ppo import Critic
from driftkit.training import TrainConfig, train

from .oracles import profiled_calls

SPEC = ChunkSpec(horizon=4, action_dim=2, history_len=2, exec_len=2)


def test_generator_roundtrip_is_exact(tmp_path):
    gen = Generator(SPEC, obs_dim=5, latent_dim=3, hidden_dim=8, seed=12)
    rng_state = np.random.default_rng(4).bit_generator.state
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, gen, ema_params=gen.param_arrays(), rng_state=rng_state)
    doc = load_checkpoint(path)
    restored = restore_generator(doc)
    for name, arr in gen.param_arrays().items():
        assert np.array_equal(restored.params[name].data, arr)
    assert doc["rng_state"] == rng_state
    assert restored.spec == SPEC


def test_ema_parameters_restore_separately(tmp_path):
    gen = Generator(SPEC, obs_dim=5, latent_dim=3, hidden_dim=8, seed=1)
    ema = {k: v * 0.5 for k, v in gen.param_arrays().items()}
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, gen, ema_params=ema)
    doc = load_checkpoint(path)
    live = restore_generator(doc, use_ema=False)
    shadow = restore_generator(doc, use_ema=True)
    for name in ema:
        assert np.array_equal(shadow.params[name].data, ema[name])
        assert np.array_equal(live.params[name].data, gen.params[name].data)
    # the default takes the shadow if the file has one, the live set otherwise
    assert restore_generator(doc).params.data.vector.tobytes() == \
        shadow.params.data.vector.tobytes()
    save_checkpoint(path, gen)
    doc = load_checkpoint(path)
    assert restore_generator(doc).params.data.vector.tobytes() == \
        live.params.data.vector.tobytes()
    with pytest.raises(SpecError, match="use_ema is true, but the checkpoint has no ema_params"):
        restore_generator(doc, use_ema=True)


def test_identical_state_serializes_to_identical_bytes(tmp_path):
    gen = Generator(SPEC, obs_dim=5, latent_dim=3, hidden_dim=8, seed=5)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(p1, gen)
    save_checkpoint(p2, gen.clone())
    assert p1.read_bytes() == p2.read_bytes()


def test_failed_save_keeps_previous_file_and_leaves_no_temp(tmp_path, monkeypatch):
    gen = Generator(SPEC, obs_dim=5, latent_dim=3, hidden_dim=8, seed=12)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, gen)
    previous = path.read_bytes()
    removed = []
    unlink = Path.unlink

    def read_unlink(self, missing_ok=False):
        removed.append((self.name, self.read_bytes()))
        unlink(self, missing_ok=missing_ok)

    monkeypatch.setattr(Path, "unlink", read_unlink)
    # the unserialisable entry sorts after "params", so the encoder gives up
    # in the middle of the stream
    with pytest.raises(TypeError):
        save_checkpoint(path, gen, rng_state={"state": object()})
    assert path.read_bytes() == previous
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]
    # the temp file held every entry before the failing value
    assert removed == [("ckpt.json.tmp", previous[:-2] + b',"rng_state":{"state":')]


def _json_dump(fh, doc):
    json.dump(doc, fh, sort_keys=True, separators=(",", ":"), default=np.ndarray.tolist)


# values whose repr the writer must keep: signed zeros, the smallest
# subnormal, the largest magnitudes, integer-valued floats
SPECIAL_FLOATS = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -3.0, 2.0**53, 0.1])


def _values(rng, shape):
    normal = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 300, shape)
    return np.where(rng.random(shape) < 0.3, rng.choice(SPECIAL_FLOATS, shape), normal)


@st.composite
def checkpoint_states(draw):
    """A generator and ``save_checkpoint`` keywords: every optional entry is
    drawn, with random parameters, a PCG64 state of 128-bit ints and optimizer
    moments that are ``None`` before the first step."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gen = Generator(SPEC, obs_dim=draw(st.integers(1, 4)), latent_dim=draw(st.integers(1, 3)),
                    hidden_dim=draw(st.integers(1, 6)))
    arrays = gen.params.arrays()
    gen.params.load({name: _values(rng, arr.shape) for name, arr in arrays.items()})
    kwargs = {}
    if draw(st.booleans()):
        kwargs["ema_params"] = {name: _values(rng, arr.shape) for name, arr in arrays.items()}
    if draw(st.booleans()):
        kwargs["rng_state"] = {
            "bit_generator": "PCG64", "has_uint32": draw(st.integers(0, 1)),
            "uinteger": draw(st.integers(0, 2**32 - 1)),
            "state": {"state": draw(st.integers(0, 2**128 - 1)),
                      "inc": draw(st.integers(0, 2**128 - 1))}}
    if draw(st.booleans()):
        steps = draw(st.integers(0, 3))
        kwargs["optimizer_state"] = {"step_count": steps, **{
            moment: {name: _values(rng, arr.shape).tolist() if steps else None
                     for name, arr in arrays.items()} for moment in ("m", "v")}}
    return gen, kwargs


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(state=checkpoint_states())
def test_streamed_file_equals_the_json_dump_bytes(tmp_path, state):
    gen, kwargs = state
    save_checkpoint(tmp_path / "streamed.json", gen, **kwargs)
    with mock.patch.object(checkpoint, "_write", _json_dump):
        save_checkpoint(tmp_path / "dumped.json", gen, **kwargs)
    dumped = (tmp_path / "dumped.json").read_bytes()
    assert dumped.endswith(b"}\n")
    assert (tmp_path / "streamed.json").read_bytes() == dumped


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)


@settings(max_examples=40, deadline=None)
@given(doc=st.recursive(JSON_SCALARS, lambda inner: (
    st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    | st.dictionaries(st.integers(), inner, max_size=3)), max_leaves=12))
def test_writer_text_equals_json_dump_on_any_document(doc):
    # dicts with int keys, empty dicts, NaN and infinities included
    streamed, dumped = io.StringIO(), io.StringIO()
    checkpoint._write(streamed, doc)
    _json_dump(dumped, doc)
    assert streamed.getvalue() == dumped.getvalue()


# list items at the edges of the float rule: signed zeros, subnormals, the
# largest floats and the ints around them, ints that floats round, NaN and the
# infinities; and the items of another type
FLOAT_MAX = 1.7976931348623157e308
NUMBERS = (st.sampled_from([0.0, -0.0, 5e-324, -5e-324, FLOAT_MAX, -FLOAT_MAX, int(FLOAT_MAX),
                            int(FLOAT_MAX) + 1, -int(FLOAT_MAX) - 1, 2**53 + 1, -(2**53 + 1),
                            2**64 + 1, 10**400, float("nan"), float("inf"), -float("inf")])
           | st.floats(allow_nan=False, allow_infinity=False) | st.integers(-2**70, 2**70))
OTHERS = st.sampled_from([True, False, "x", None]) | st.lists(st.floats(), max_size=2)


@settings(max_examples=300, deadline=None)
@given(value=st.lists(NUMBERS, max_size=6) | st.lists(NUMBERS | OTHERS, max_size=6)
       | NUMBERS | OTHERS)
def test_the_array_kind_reads_what_the_float_tuple_kind_reads_to_the_bit(value):
    try:
        expected = np.array(typed(value, tuple[float, ...], "k", "w: "), dtype=np.float64)
    except SpecError as exc:
        with pytest.raises(SpecError) as raised:
            typed(value, np.ndarray, "k", "w: ")
        assert str(raised.value) == str(exc)
    else:
        read = typed(value, np.ndarray, "k", "w: ")
        assert (read.dtype, read.shape) == (np.float64, expected.shape)
        assert read.tobytes() == expected.tobytes()


def _trained_state(hidden_dim):
    """A generator of width ``hidden_dim`` two Stage-1 steps in, and the
    ``save_checkpoint`` keywords of the benchmark's set-up: EMA, rng and
    optimizer state, the moments as ``AdamW.state`` hands them over."""
    dataset = synth_multimodal(conditions=6, samples_per_condition=2, seed=1)
    gen = Generator(dataset.spec, obs_dim=dataset.metadata["obs_dim"], latent_dim=8,
                    hidden_dim=hidden_dim, seed=2)
    result = train(dataset, gen, DriftConfig(), TrainConfig(steps=2, batch_size=8, seed=3))
    return gen, {"ema_params": result.ema_params, "rng_state": result.rng_state,
                 "optimizer_state": result.optimizer_state}


@pytest.fixture(scope="module")
def hidden64_state():
    return _trained_state(64)


def _save_calls(path, gen, kwargs):
    """cProfile's call count of one save."""
    return profiled_calls(lambda: save_checkpoint(path, gen, **kwargs)).total_calls


def test_a_save_makes_the_same_python_calls_at_any_width(tmp_path, hidden64_state):
    gen, kwargs = hidden64_state
    save_checkpoint(tmp_path / "warm.json", gen, **kwargs)
    calls = [_save_calls(tmp_path / name, gen, kwargs) for name in ("a.json", "b.json")]
    assert calls[0] == calls[1]
    # the values are encoded in C, so a width with 1/40 of them costs the same calls
    narrow, narrow_kwargs = _trained_state(8)
    assert _save_calls(tmp_path / "narrow.json", narrow, narrow_kwargs) == calls[0]


def _traced_peak(fn, *args, **kwargs) -> int:
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_save_peaks_below_a_load_of_the_same_file(tmp_path, hidden64_state):
    gen, kwargs = hidden64_state
    path = tmp_path / "c.json"
    save_checkpoint(path, gen, **kwargs)
    assert _traced_peak(save_checkpoint, path, gen, **kwargs) < _traced_peak(load_checkpoint, path)


def test_unsupported_version_rejected(tmp_path):
    gen = Generator(SPEC, obs_dim=5, latent_dim=3, hidden_dim=8, seed=5)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, gen)
    text = path.read_text().replace('"format_version":1', '"format_version":99')
    path.write_text(text)
    with pytest.raises(SpecError):
        load_checkpoint(path)


BUNDLES = {
    "generator": lambda: Generator(SPEC, obs_dim=5, latent_dim=3, hidden_dim=8, seed=2).params,
    "critic": lambda: Critic(10, hidden_dim=8, seed=3).params,
    "actor_head": lambda: GaussianActor(
        Generator(SPEC, obs_dim=5, latent_dim=3, hidden_dim=8, seed=2)).head,
}


def _misshaped(arrays):
    name = next(k for k in arrays if k.endswith("_w"))
    rows, cols = arrays[name].shape
    return dict(arrays, **{name: np.zeros((rows, cols + 1))})


def _nonfinite(arrays):
    name = list(arrays)[-1]
    bad = arrays[name].copy()
    bad.flat[0] = np.nan
    return dict(arrays, **{name: bad})


BAD_ENTRIES = {
    "missing": (lambda arrays: dict(list(arrays.items())[:-1]), SpecError),
    "unexpected": (lambda arrays: dict(arrays, extra_w=np.zeros((2, 2))), SpecError),
    "misshaped": (_misshaped, SpecError),
    "nonfinite": (_nonfinite, AutodiffError),
}


@pytest.mark.parametrize("case", sorted(BAD_ENTRIES))
@pytest.mark.parametrize("bundle", sorted(BUNDLES))
def test_bundle_load_rejects_bad_entries_and_keeps_its_leaves(bundle, case):
    params = BUNDLES[bundle]()
    leaves = dict(params)
    before = {name: leaf.data for name, leaf in params.items()}
    good = {name: np.ones_like(arr) for name, arr in params.arrays().items()}
    corrupt, error = BAD_ENTRIES[case]
    with pytest.raises(error):
        params.load(corrupt(good))
    for name, leaf in params.items():
        assert leaf is leaves[name]
        assert leaf.data is before[name]
    # the same arrays without the bad entry load, into the same leaves
    params.load(good)
    for name, leaf in params.items():
        assert leaf is leaves[name]
        assert np.array_equal(leaf.data, good[name])
