"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload train-syn3 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src``. The
run sets the workload up several times, then runs whole rounds until
``--seconds`` have passed (and at least the rounds its quality figures
need). Every reported time is adjusted for the host's speed (see
``hostclock.py``). The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` odd rounds are traced, even rounds are
not, and the metrics are the per-layer ones. Results and spans are also
written under ``bench/out``.
"""
from __future__ import annotations

import os

# one process, one client, no extra threads: BLAS runs on the calling thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"
SETUPS = 3
# what a run keeps of each round once its outputs are checked
TIMINGS = ("wall_s", "train_s", "rows_epochs", "latency_s", "decide_wall_s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "unimvt" / "__init__.py").is_file():
        print(f"error: no unimvt package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    sys.path.insert(0, str(SRC))

    from hostclock import HostClock
    from tracing import Tracer
    from workloads import WORKLOADS, RoundFailed

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        clock = HostClock()
        return run(WORKLOADS[args.workload](args.seed, workdir, clock), args, Tracer(),
                   RoundFailed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(wl, args, tracer, round_failed) -> int:
    traced = args.trace == 1

    def phase(name, on):
        return tracer.phase(name) if on else contextlib.nullcontext()

    setups = []
    for k in range(SETUPS):
        # every set-up and round starts from a heap without the garbage of the
        # one before, so the collector's work in it is its own
        gc.collect()
        with phase("setup", traced):
            setups.append(wl.setup(k))
        wl.verify_setup(k)

    rounds = []
    min_rounds = max(wl.distinct, 2 if traced else 1)
    start = perf_counter()
    while len(rounds) < min_rounds or perf_counter() - start < args.seconds:
        on = traced and len(rounds) % 2 == 1
        gc.collect()
        try:
            with phase("round", on):
                result = wl.round(len(rounds))
        except round_failed:
            result = None
        else:
            wl.verify_round(len(rounds), result)
            result = {key: result[key] for key in TIMINGS if key in result}
        rounds.append((on, result))
    done = [res for _, res in rounds if res is not None]
    if not done:
        print("error: every round failed: " + "; ".join(wl.ops.errors[:3]), file=sys.stderr)
        return 1

    if traced:
        walls = {on: [res["wall_s"] for o, res in rounds if res is not None and o == on]
                 for on in (False, True)}
        overhead = statistics.median(walls[True]) - statistics.median(walls[False])
        metrics = tracer.summary(overhead)
        tracer.write(OUT / f"trace-{wl.name}-seed{args.seed}.jsonl")
    else:
        metrics = end_to_end(setups, done, wl)

    for message in wl.failures + wl.ops.errors:
        print(f"check failed: {message}", file=sys.stderr)
    reference = {
        "workload": wl.name, "seed": args.seed, "rounds": len(rounds), "setups": SETUPS,
        "quality": wl.quality, "reference": wl.reference,
        "setup_s": [s["setup_s"] for s in setups],
        "round_wall_s": [res["wall_s"] for res in done],
        # host clock factors (reference speed over measured speed) of the run
        "host_factor": {"min": min(wl.clock.factors), "median": statistics.median(wl.clock.factors),
                        "max": max(wl.clock.factors)},
    }
    print(json.dumps(reference, sort_keys=True))
    result = {
        "correct": not wl.failures,
        "attempted": wl.ops.attempted,
        "failed": wl.ops.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, **reference), sort_keys=True, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def end_to_end(setups, done, wl) -> dict:
    trainings = setups if "train_s" in setups[0] else done
    latency_ms = [s * 1e3 for res in done for s in res["latency_s"]]
    def mean(key):
        return statistics.fmean(q[key] for q in wl.quality.values())

    return {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "wall_s": (statistics.median(res["wall_s"] for res in done), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "train_rows_per_s": (
            statistics.median(t["rows_epochs"] / t["train_s"] for t in trainings), "rows/s"),
        "decisions_per_s": (
            statistics.median(len(res["latency_s"]) / res["decide_wall_s"] for res in done),
            "1/s"),
        "decision_p50_ms": (statistics.median(latency_ms), "ms"),
        "base_ctr_rmse": (mean("base_ctr_rmse"), "probability"),
        "control_auc": (mean("control_auc"), "ratio"),
        "control_logloss": (mean("control_logloss"), "nats"),
    }


if __name__ == "__main__":
    sys.exit(main())
