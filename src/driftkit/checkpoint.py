"""Self-describing JSON checkpoints.

One document stores the chunk geometry, the generator's dimensions and flat
parameter arrays, and optionally their EMA shadow: what ``eval`` and
``finetune`` read.  ``driftkit train`` writes the parameters and their EMA
into every file, periodic or final, and a fine-tune run its generator alone;
the scale head and critic entries of older files are ignored.  Keys are
sorted and floats use repr, so identical state serializes to identical
bytes.  The file is the compact ``json.dump(doc, sort_keys=True)`` text and a
newline, written one entry at a time through the C encoder (:func:`_write`).
Loading checks every field that a restore reads, with
:func:`driftkit.generator.read_keys`, and decodes each packed array once.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from .generator import Generator, SpecError, read_json_object, read_keys, read_spec

FORMAT_VERSION = 1

# ``encode`` runs the C encoder; ``json.dump`` never does, it iterates in Python.
# An array is turned into its list of floats only as it is written.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                           default=np.ndarray.tolist).encode


def _pack(arrays: dict[str, np.ndarray]) -> dict:
    return {name: {"shape": list(arr.shape), "data": arr.reshape(-1)}
            for name, arr in arrays.items()}


def _unpack(doc: dict, key: str, where: str) -> None:
    """Replace each packed ``{shape, data}`` entry under ``key`` by its data, read
    by ``typed`` as one array of finite floats, viewed in the shape it must fill."""
    packed = read_keys(doc, {key: dict}, where)[key]
    for name in list(packed):
        kinds = {f"{key}.{name}.shape": tuple[int, ...], f"{key}.{name}.data": np.ndarray}
        shape, data = read_keys(doc, kinds, where).values()
        if min(shape, default=0) < 0 or math.prod(shape) != len(data):
            raise SpecError(f"{where}key '{key}.{name}.shape' is {list(shape)}, "
                            f"but the data holds {len(data)} values")
        packed[name] = data.reshape(shape)


def _write(fh, obj) -> None:
    """Write ``obj`` as ``json.dump(obj, fh, sort_keys=True, separators=(",", ":"))``
    does, encoding one value below a string-keyed dict at a time, so only one
    packed array's text is held at once.  Any other value, an empty dict or
    one with a non-string key included, goes to the encoder whole."""
    if not (isinstance(obj, dict) and obj and all(isinstance(key, str) for key in obj)):
        fh.write(_encode(obj))
        return
    sep = "{"
    for key in sorted(obj):
        fh.write(f"{sep}{_encode(key)}:")
        _write(fh, obj[key])
        sep = ","
    fh.write("}")


def save_checkpoint(path, generator: Generator, ema_params=None, rng_state=None,
                    optimizer_state=None) -> None:
    """Write atomically: a temp file in the same directory, then ``os.replace``.

    If serialisation fails, a previous file at ``path`` is left as it was and
    the temp file is removed.  ``rng_state`` and ``optimizer_state``, if
    given, are written as the ``rng_state`` and ``optimizer`` entries; only
    the benchmark's set-up passes them, and no loader reads them back.
    """
    doc = {
        "format_version": FORMAT_VERSION,
        "chunk_spec": generator.spec.to_dict(),
        "obs_dim": generator.obs_dim,
        "latent_dim": generator.latent_dim,
        "hidden_dim": generator.hidden_dim,
        "params": _pack(generator.params.data),
    }
    if ema_params is not None:
        doc["ema_params"] = _pack(ema_params)
    if rng_state is not None:
        doc["rng_state"] = rng_state
    if optimizer_state is not None:
        doc["optimizer"] = optimizer_state
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as fh:
            _write(fh, doc)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> dict:
    """Read a checkpoint document, with ``chunk_spec`` as a :class:`ChunkSpec`
    and every packed parameter entry as its array.  Invalid JSON, another
    format version, a missing or mistyped key, data that does not fill its
    shape and a non-finite parameter raise :class:`SpecError` naming the file
    and the key."""
    where = f"checkpoint {path}: "
    doc = read_json_object(path, "checkpoint")
    version = read_keys(doc, {"format_version": int, "obs_dim": int, "latent_dim": int,
                              "hidden_dim": int}, where)["format_version"]
    if version != FORMAT_VERSION:
        raise SpecError(f"{where}unsupported format version {version!r}")
    doc["chunk_spec"] = read_spec(doc, where)
    _unpack(doc, "params", where)
    if "ema_params" in doc:
        _unpack(doc, "ema_params", where)
    return doc


def restore_generator(doc: dict, use_ema: bool | None = None) -> Generator:
    """The generator of a :func:`load_checkpoint` document, its bundle a copy
    of ``ema_params`` or ``params``: ``use_ema=None`` takes ``ema_params`` if
    the document has them, and ``True`` without them raises :class:`SpecError`."""
    if use_ema is None:
        use_ema = "ema_params" in doc
    elif use_ema and "ema_params" not in doc:
        raise SpecError("use_ema is true, but the checkpoint has no ema_params")
    gen = Generator(doc["chunk_spec"], obs_dim=doc["obs_dim"], latent_dim=doc["latent_dim"],
                    hidden_dim=doc["hidden_dim"])
    gen.params.load(doc["ema_params" if use_ema else "params"])
    return gen
