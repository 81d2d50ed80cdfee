"""Experiment configuration: dataclasses plus the flat key=value bridge.

Flat keys follow ``section.field`` naming, e.g. ``loss.lambda_base``,
``train.epochs``, ``ablate.dcr``, ``dcr.hidden``, ``net.tower_hidden``;
model files record every key in this form, and each key's kind is its default's.

Every knob of the package is checked here, by two package-internal helpers
that refuse a bool and any non-number with a ConfigError naming the knob:
``_integer`` and ``_real`` (finite). ``validate`` runs them over a config;
``SynSpec``, the allocation grid, ``decide`` and the metrics' k call them.
"""
from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field, fields

from .dcr import DcrConfig
from .errors import ConfigError


def _integer(value, key: str, least: int = 1) -> None:
    """ConfigError naming key unless value is an integer of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if value < least:
        raise ConfigError(f"{key} must be an integer of at least {least}, got {value}")


def _real(value, key: str, least: float | None = None, *, above: bool = False) -> None:
    """ConfigError naming key unless value is a finite real number (an int or
    a Fraction within the float range), and at least ``least`` (above it when
    ``above``) when one is given. An exact float, what callers pass, costs a
    type test before its finiteness and range tests; any other type is first
    checked to be a real number that is not a bool."""
    if type(value) is float:
        finite = math.isfinite(value)
    else:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigError(f"{key} must be a number, got {value!r}")
        integral = isinstance(value, numbers.Integral)
        # an int beyond the float range would overflow math.isfinite and every float op
        if integral and abs(value) > sys.float_info.max:
            raise ConfigError(f"{key} must lie in the float range, got an integer beyond it")
        try:
            finite = integral or math.isfinite(value)
        except OverflowError:  # a Fraction beyond the float range
            raise ConfigError(f"{key} must lie in the float range, got "
                              f"{type(value).__name__} beyond it") from None
    if not finite:
        raise ConfigError(f"{key} must be finite, got {value}")
    if least is not None and (value <= least if above else value < least):
        raise ConfigError(f"{key} must be {'above' if above else 'at least'} {least}, "
                          f"got {value}")


@dataclass
class NetConfig:
    tower_hidden: tuple[int, ...] = (32, 32)
    head_hidden: int = 16


@dataclass
class LossWeights:
    """Weights of the joint loss terms. A zero weight drops its term: the
    term is not computed, its component reads 0.0 and it gives no gradient;
    with every weight 0 the loss is a dead node of value 0.0. The uplift
    head's output reaches the loss only through the counterfactual term, so
    ``lambda_x = 0`` leaves that head at its initialization."""

    lambda_base: float = 1.0
    lambda_treat: float = 1.0
    lambda_t: float = 0.1
    lambda_x: float = 0.5
    lambda_o: float = 1e-4


@dataclass
class TrainConfig:
    epochs: int = 6
    batch: int = 256
    lr: float = 1e-3
    seed: int = 0


@dataclass
class AblationConfig:
    dcr: bool = False


@dataclass
class ExperimentConfig:
    dcr: DcrConfig = field(default_factory=DcrConfig)
    net: NetConfig = field(default_factory=NetConfig)
    loss: LossWeights = field(default_factory=LossWeights)
    train: TrainConfig = field(default_factory=TrainConfig)
    ablate: AblationConfig = field(default_factory=AblationConfig)


def default_config() -> ExperimentConfig:
    return ExperimentConfig()


def _walk(cfg: ExperimentConfig):
    """(flat key, default, section object, field name) of every config key, in order."""
    for section in fields(ExperimentConfig):
        obj = getattr(cfg, section.name)
        for f in fields(section.default_factory):
            yield f"{section.name}.{f.name}", f.default, obj, f.name


def validate(cfg: ExperimentConfig, input_dim: int) -> None:
    """What every trainer checks before any work: ConfigError naming the key
    unless input_dim is an integer of at least 1 and each key holds a value
    of its default's kind: a bool; a tuple or list of integers of at least 1;
    an integer of at least 1 (0 for ``train.seed``); a finite number of at
    least 0 (above it for ``train.lr``)."""
    _integer(input_dim, "input_dim")
    for key, default, obj, name in _walk(cfg):
        value = getattr(obj, name)
        if isinstance(default, bool):
            if not isinstance(value, bool):
                raise ConfigError(f"{key} must be a bool, got {value!r}")
        elif isinstance(default, tuple):
            if not isinstance(value, (tuple, list)):
                raise ConfigError(f"{key} must be a tuple of widths, got {value!r}")
            for width in value:
                _integer(width, key)
        elif isinstance(default, int):
            _integer(value, key, least=0 if key == "train.seed" else 1)
        else:
            _real(value, key, 0.0, above=key == "train.lr")


def _parse_value(default, raw: str, key: str):
    raw = raw.strip()
    if isinstance(default, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    try:
        if isinstance(default, tuple):
            return tuple(int(v) for v in raw.split(",") if v.strip())
        return type(default)(raw)  # an int or a float
    except ValueError:
        kind = "integers" if isinstance(default, tuple) else type(default).__name__
        raise ConfigError(f"{key}: expected {kind}, got {raw!r}") from None


def apply_overrides(cfg: ExperimentConfig, flat: dict) -> ExperimentConfig:
    """Apply flat key=value overrides in place; unknown keys raise ConfigError."""
    keys = {key: rest for key, *rest in _walk(cfg)}
    for key, raw in flat.items():
        if key not in keys:
            raise ConfigError(f"unknown config key {key!r}")
        default, obj, name = keys[key]
        setattr(obj, name, _parse_value(default, str(raw), key))
    return cfg


def config_to_flat(cfg: ExperimentConfig) -> dict:
    """Flatten a config to key=value strings that ``apply_overrides`` reads back."""
    flat = {}
    for key, default, obj, name in _walk(cfg):
        value = getattr(obj, name)
        if isinstance(default, tuple):
            value = ",".join(str(v) for v in value)
        elif isinstance(default, float):
            value = float(value)
        flat[key] = str(value)
    return flat
