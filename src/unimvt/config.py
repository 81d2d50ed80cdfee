"""Experiment configuration: dataclasses plus the flat key=value bridge.

Flat keys follow ``section.field`` naming, e.g. ``loss.lambda_base``,
``train.epochs``, ``ablate.dcr``, ``dcr.hidden``, ``net.tower_hidden``;
model files record the keys that shape the network in this form.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

from .dcr import DcrConfig
from .errors import ConfigError


@dataclass
class NetConfig:
    tower_hidden: tuple[int, ...] = (32, 32)
    head_hidden: int = 16


@dataclass
class LossWeights:
    """Weights of the joint loss terms; a zero weight drops its term. The
    uplift head's output reaches the loss only through the counterfactual
    term, so ``lambda_x = 0`` leaves that head at its initialization."""

    lambda_base: float = 1.0
    lambda_treat: float = 1.0
    lambda_t: float = 0.1
    lambda_x: float = 0.5
    lambda_o: float = 1e-4

    def validate(self) -> None:
        """ConfigError naming the weight unless each is a finite and
        nonnegative number; a bool is not one."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"loss weight {f.name} must be a number, got {value!r}")
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"loss weight {f.name} must be finite and nonnegative, "
                                  f"got {value}")


@dataclass
class TrainConfig:
    epochs: int = 6
    batch: int = 256
    lr: float = 1e-3
    seed: int = 0

    def checked_seed(self) -> int:
        """``seed``, read by every trainer; ConfigError unless a nonnegative integer."""
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise ConfigError(f"train.seed must be a nonnegative integer, got {seed!r}")
        return int(seed)


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


_SECTIONS = ("dcr", "net", "loss", "train", "ablate")


def _parse_value(current, raw: str, key: str):
    raw = raw.strip()
    if isinstance(current, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    try:
        if isinstance(current, tuple):
            return tuple(int(v) for v in raw.split(",") if v.strip())
        if isinstance(current, int):
            return int(raw)
        if isinstance(current, float):
            return float(raw)
    except ValueError:
        kind = "integers" if isinstance(current, tuple) else type(current).__name__
        raise ConfigError(f"{key}: expected {kind}, got {raw!r}") from None
    return raw


def apply_overrides(cfg: ExperimentConfig, flat: dict) -> ExperimentConfig:
    """Apply flat key=value overrides in place; unknown keys raise ConfigError."""
    for key, raw in flat.items():
        section, _, name = key.partition(".")
        if section not in _SECTIONS or not name:
            raise ConfigError(f"unknown config key {key!r}")
        obj = getattr(cfg, section)
        if not hasattr(obj, name):
            raise ConfigError(f"unknown config key {key!r}")
        setattr(obj, name, _parse_value(getattr(obj, name), str(raw), key))
    return cfg


def config_to_flat(cfg: ExperimentConfig) -> dict:
    """Flatten a config to key=value strings (deterministic content for manifests)."""
    flat = {}
    for section in _SECTIONS:
        obj = getattr(cfg, section)
        for f in fields(obj):
            value = getattr(obj, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            flat[f"{section}.{f.name}"] = str(value)
    return flat
