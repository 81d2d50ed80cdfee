"""Every entry point named outside the package resolves to a callable: the
console scripts of pyproject.toml and the functions the benchmark's tracer
rebinds by name; and a traced training gives the tracer what it reads."""

import importlib
import importlib.util
import tomllib
from dataclasses import replace
from pathlib import Path

from unimvt import datagen, htenet
from unimvt.config import ExperimentConfig, TrainConfig

ROOT = Path(__file__).resolve().parents[1]


def load_tracing():
    """bench/tracing.py, imported from its path."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_declared_scripts_resolve_to_callables():
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_traced_bindings_resolve_to_callables():
    tracing = load_tracing()
    for span, bindings in tracing.SPANS.items():
        for module, attr in bindings:
            assert callable(getattr(module, attr, None)), f"{span}: {module.__name__}.{attr}"


def test_traced_training_counts_tape_nodes():
    # the tracer reads len(args[0].nodes) after every autodiff.backward call
    train, _ = datagen.generate(replace(datagen.PRESETS["syn1"], n_train=2000, n_test=200))
    tracer = load_tracing().Tracer()
    with tracer.phase("setup"):
        htenet.train(train, ExperimentConfig(train=TrainConfig(epochs=1)))
    assert tracer.counters["setup"]["tape_nodes"] > 0
