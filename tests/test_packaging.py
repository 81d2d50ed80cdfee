"""Every entry point named outside the package resolves to a callable: the
console scripts of pyproject.toml and the functions the benchmark's tracer
rebinds by name."""

import importlib
import importlib.util
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_declared_scripts_resolve_to_callables():
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_traced_bindings_resolve_to_callables():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for span, bindings in tracing.SPANS.items():
        for module, attr in bindings:
            assert callable(getattr(module, attr, None)), f"{span}: {module.__name__}.{attr}"
