"""The key=value text format of model files and dataset metadata sidecars.

One ``key=value`` pair per line, each key at most once; blank lines and
``#`` comments are skipped.
A parameter tensor is one line ``param.<name>=<ndim> <dims...> <values...>``
with every value finite and written as its shortest round-trip ``repr``, so
a save/load round trip is bit-exact.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, NumericError


def read(path) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: cannot decode: {exc}") from exc
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in out:
            raise ConfigError(f"{path}:{lineno}: repeated key {key!r}")
        out[key] = value.strip()
    return out


def write(path, lines) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.writelines(f"{line}\n" for line in lines)


def field(kv: dict, key: str, parse=str):
    """``parse(kv[key])``; a missing key or a value that does not parse
    raises a ConfigError naming the key."""
    if key not in kv:
        raise ConfigError(f"model file is missing {key!r}")
    try:
        return parse(kv[key])
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"model file has a bad {key!r}: {exc}") from exc


def param_line(p: ad.ParamTensor) -> str:
    """The line of p; a NaN or infinite value raises NumericError naming the
    line's key, since ``restore_params`` would refuse it."""
    if not np.isfinite(p.values).all():
        raise NumericError(f"param.{p.name} has a non-finite value; a model file holds finite ones")
    dims = " ".join(str(d) for d in p.values.shape)
    vals = " ".join(repr(float(v)) for v in p.values.reshape(-1))
    return f"param.{p.name}={p.values.ndim} {dims} {vals}"


def _parse_array(raw: str, shape: tuple[int, ...]) -> np.ndarray:
    fields = raw.split()
    ndim = int(fields[0])
    got = tuple(int(v) for v in fields[1 : 1 + ndim])
    if got != shape:
        raise ValueError(f"shape {got}, expected {shape}")
    values = np.array([float(v) for v in fields[1 + ndim :]]).reshape(shape)
    if not np.isfinite(values).all():
        raise ValueError("values must be finite")
    return values


def restore_params(kv: dict, params) -> None:
    """Fill params from their lines; the first parameter line that names
    none of them raises a ConfigError naming it."""
    names = {f"param.{p.name}" for p in params}
    stray = next((key for key in kv if key.startswith("param.") and key not in names), None)
    if stray is not None:
        raise ConfigError(f"model file has {stray!r}, which the network has no slot for")
    for p in params:
        p.values[...] = field(kv, f"param.{p.name}", lambda raw: _parse_array(raw, p.shape))
