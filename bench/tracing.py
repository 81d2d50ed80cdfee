"""Per-layer tracing from outside the program.

Each traced function is replaced, for the length of a traced phase, by a
wrapper bound at the name its caller looks it up by (``htenet.dcr_forward``
for the DCR call inside ``htenet``, ``autodiff.backward`` for the call
``ad.backward(tape)``). The wrapper records one span per call: name, phase,
start, end and the index of the enclosing span. No span goes inside the
program, and outside a traced phase the original functions are back in place.
"""
from __future__ import annotations

import contextlib
import functools
import gc
import json
from time import perf_counter_ns

from unimvt import allocator, autodiff, baselines, datagen, htenet, metrics

# span name -> the (module, attribute) bindings it is looked up by
SPANS = {
    "autodiff.backward": [(autodiff, "backward")],
    "autodiff.optimizer_step": [(autodiff, "optimizer_step")],
    "dcr.forward": [(htenet, "dcr_forward")],
    "dcr.orth_penalty": [(htenet, "orth_penalty")],
    "htenet.joint_loss": [(htenet, "joint_loss_arrays")],
    "htenet.train": [(htenet, "train")],
    "htenet.predict_batch": [(htenet, "predict_batch")],
    "htenet.predict": [(htenet, "predict")],
    "htenet.save_model": [(htenet, "save_model")],
    "htenet.load_model": [(htenet, "load_model")],
    "datagen.generate": [(datagen, "generate")],
    "datagen.save_csv": [(datagen, "save_csv")],
    "datagen.load_csv": [(datagen, "load_csv")],
    "datagen.dataset_arrays": [
        (datagen, "dataset_arrays"), (htenet, "dataset_arrays"),
        (baselines, "dataset_arrays"), (metrics, "dataset_arrays"),
    ],
    "metrics.auc": [(metrics, "auc")],
    "metrics.cs_qini": [(metrics, "cs_qini")],
    "baselines.train_slearner": [(baselines, "train_slearner")],
    "baselines.train_tlearner": [(baselines, "train_tlearner")],
    "allocator.decide": [(allocator, "decide")],
}

COUNTERS = ("tape_nodes", "issued", "gc_ns", "gc_collections")

# per-call figures named after the layer they describe: metric -> (span, self time?)
PER_CALL_MS = {
    "autodiff.backward_ms": ("autodiff.backward", False),
    "autodiff.optimizer_step_ms": ("autodiff.optimizer_step", False),
    "dcr.forward_ms": ("dcr.forward", False),
    "dcr.orth_penalty_ms": ("dcr.orth_penalty", False),
    "htenet.joint_loss_self_ms": ("htenet.joint_loss", True),
    "htenet.predict_ms": ("htenet.predict", True),
    "allocator.decide_ms": ("allocator.decide", False),
}


class Tracer:
    """Spans and counters of the traced phases of one benchmark run."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []   # (name, phase, start_ns, end_ns, parent index)
        self.phase_counts = {"setup": 0, "round": 0}
        # per phase: tape_nodes (len(tape.nodes) summed over backward calls),
        # issued (decisions that issue a coupon), gc_ns, gc_collections
        self.counters = {phase: dict.fromkeys(COUNTERS, 0) for phase in self.phase_counts}
        self._stack: list[int] = []
        self._phase = None
        self._gc_start = None

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                tracer._stack.pop()
                tracer.spans[index] = (name, tracer._phase, start, end, parent)
            if name == "autodiff.backward":
                tracer.counters[tracer._phase]["tape_nodes"] += len(args[0].nodes)
            elif name == "allocator.decide" and result.issue:
                tracer.counters[tracer._phase]["issued"] += 1
            return result

        return wrapper

    def _on_gc(self, event, info) -> None:
        if event == "start":
            self._gc_start = perf_counter_ns()
        elif self._gc_start is not None:
            counters = self.counters[self._phase]
            counters["gc_ns"] += perf_counter_ns() - self._gc_start
            counters["gc_collections"] += 1
            self._gc_start = None

    @contextlib.contextmanager
    def phase(self, phase: str):
        """Trace one set-up or one round: install every wrapper, restore after."""
        originals = []
        for name, bindings in SPANS.items():
            for module, attr in bindings:
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))
        self._phase = phase
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)
            self._gc_start = None
            self._phase = None
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)
            self.phase_counts[phase] += 1

    def summary(self, overhead_s: float) -> dict:
        """Per-layer metrics for one set-up plus one round of the workload.

        Totals of the set-up phase are divided by the number of traced
        set-ups and those of the round phase by the number of traced rounds,
        then added; a span's self time is its duration minus its children's.
        """
        child_ns = [0] * len(self.spans)
        for name, phase, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        agg = {name: [0.0, 0.0, 0.0] for name in SPANS}  # calls, total s, self s
        backward_calls = 0
        for i, (name, phase, start, end, parent) in enumerate(self.spans):
            scale = 1.0 / self.phase_counts[phase]
            row = agg[name]
            row[0] += scale
            row[1] += (end - start) * 1e-9 * scale
            row[2] += (end - start - child_ns[i]) * 1e-9 * scale
            backward_calls += name == "autodiff.backward"
        per_unit = {
            key: sum(self.counters[p][key] / n for p, n in self.phase_counts.items() if n)
            for key in COUNTERS
        }
        out = {}
        for name, (calls, total, self_s) in agg.items():
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}_s"] = (total, "s")
            out[f"{name}.self_s"] = (self_s, "s")
        for metric, (span, use_self) in PER_CALL_MS.items():
            calls, total, self_s = agg[span]
            out[metric] = ((self_s if use_self else total) / calls * 1e3 if calls else 0.0, "ms")
        tape_nodes = sum(c["tape_nodes"] for c in self.counters.values())
        out["autodiff.tape_nodes"] = (tape_nodes / backward_calls if backward_calls else 0.0,
                                      "count")
        out["autodiff.gc_s"] = (per_unit["gc_ns"] * 1e-9, "s")
        out["autodiff.gc_collections"] = (per_unit["gc_collections"], "count")
        out["allocator.issued"] = (per_unit["issued"], "count")
        out["trace.overhead_s"] = (overhead_s, "s")
        return out

    def write(self, path) -> None:
        """Dump every span as one JSON line: name, phase, start, end, parent."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
