"""Every entry point named outside the package resolves to a callable: the
console scripts of pyproject.toml and the functions the benchmark's tracer
rebinds by name; a traced training gives the tracer what it reads; the
benchmark's serving loop runs on the library's decision API; the package
ships only tape primitives it records; each module imports on its own; and
no module imports a name it never reads."""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
import tomllib
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from unimvt import autodiff as ad
from unimvt import datagen, htenet
from unimvt.config import ExperimentConfig, TrainConfig

ROOT = Path(__file__).resolve().parents[1]


def load_bench(name):
    """bench/<name>.py, imported from its path."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_declared_scripts_resolve_to_callables():
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_traced_bindings_resolve_to_callables():
    tracing = load_bench("tracing")
    for span, bindings in tracing.SPANS.items():
        for module, attr in bindings:
            assert callable(getattr(module, attr, None)), f"{span}: {module.__name__}.{attr}"


def test_the_package_records_every_tape_primitive_it_ships():
    # the gradient checker and the per-primitive references live in tests/gradcheck.py
    source = "\n".join(path.read_text() for path in (ROOT / "src" / "unimvt").glob("*.py"))
    primitives = {name for name, attr in vars(ad.Tape).items()
                  if callable(attr) and not name.startswith("_")} - {"record", "constant"}
    unused = {name for name in primitives if not re.search(rf"\.{name}\(", source)}
    assert primitives and not unused, f"Tape primitives the package never records: {unused}"
    assert not hasattr(ad, "finite_diff_check") and not hasattr(ad, "_PinnedTape")


def test_traced_training_counts_tape_nodes():
    # the tracer reads len(args[0].nodes) after every autodiff.backward call
    train, _ = datagen.generate(replace(datagen.PRESETS["syn1"], n_train=2000, n_test=200))
    tracer = load_bench("tracing").Tracer()
    with tracer.phase("setup"):
        htenet.train(train, ExperimentConfig(train=TrainConfig(epochs=1)))
    assert tracer.counters["setup"]["tape_nodes"] > 0


def test_benchmark_serving_loop_runs_on_the_library(monkeypatch, tmp_path):
    # the library calls bench/workloads.py makes outside the traced spans:
    # AllocationGrid, decide(..., mode=DECISION_MODE) and Prediction
    monkeypatch.setitem(sys.modules, "checks", load_bench("checks"))
    workloads = load_bench("workloads")
    clock = SimpleNamespace(begin=lambda: None, factor=lambda: 1.0)
    workload = workloads.Workload(0, tmp_path, clock)
    users = np.random.default_rng(0).uniform([0.05, 0.0], [0.9, 0.08], size=(40, 2))
    res = workload.serve(users, lambda u: htenet.Prediction(u[0], 0.0, 0.0, u[1], 0.0))
    workload.check_decisions(res)
    assert workload.failures == [] and workload.ops.failed == 0
    assert res["issue"].any() and not res["issue"].all()


def test_every_module_imports_on_its_own():
    # one fresh import per module, so a cycle that pytest's shared import
    # order would hide shows as an ImportError
    modules = sorted(path.stem for path in (ROOT / "src" / "unimvt").glob("*.py"))
    script = "\n".join([
        "import importlib, sys",
        f"for name in {modules!r}:",
        "    for loaded in [m for m in sys.modules if m.split('.')[0] == 'unimvt']:",
        "        del sys.modules[loaded]",
        "    importlib.import_module('unimvt.' + name if name != '__init__' else 'unimvt')",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_no_module_imports_a_name_it_never_reads():
    # the unused-import rule of a linter, which the project does not depend on
    for path in sorted((ROOT / "src" / "unimvt").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        assert imported <= read, f"{path.name} never reads {sorted(imported - read)}"
