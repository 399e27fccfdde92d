"""Spans and counters recorded around calls into geoseg's layers.

A Tracer swaps module attributes and class methods of the program for
thin wrappers while it is installed, and puts the originals back when it
is removed. Each wrapped call becomes a span (name, start, end, parent)
kept in memory; a layer's self time is its span minus the time its child
spans cover. Counters ride on the same wrappers, so ratios are measured
where the work happens. Nothing inside the program is edited, and an
uninstalled Tracer leaves every attribute exactly as it found it.
"""

from __future__ import annotations

import functools
import gc
import json
import resource
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from geoseg import (
    autodiff,
    geometry_embedding,
    network,
    scenes,
    synthetic,
    training,
)


OPERATION = "operation"
ROUND = "round"


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._patches: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    # -- installing -------------------------------------------------------

    def wrap(self, name: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        return traced

    def operation(self, fn):
        """Wrap one benchmark operation: the root span every per-op layer sits under."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            try:
                return fn(*args, **kwargs)
            finally:
                after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                tracer.counts["process.minor_faults"] += after - before

        return self.wrap(OPERATION, counted)

    def round(self, fn):
        """Wrap one timed round: per-layer figures count only spans inside a round."""
        return self.wrap(ROUND, fn)

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result))

    def count_vars(self) -> None:
        """Count Vars and the gradient bytes they hold right after __init__."""
        original = autodiff.Var.__init__
        tracer = self

        def counting_init(var, *args, **kwargs):
            original(var, *args, **kwargs)
            if not tracer._stack:
                return
            tracer.counts["autodiff.vars"] += 1
            grad = getattr(var, "grad", None)
            if grad is not None:
                tracer.counts["autodiff.grad_mb"] += grad.nbytes / 1e6

        self._patches.append((autodiff.Var, "__init__", original))
        autodiff.Var.__init__ = counting_init

    def count_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self._stack:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.counts["gc.collections"] += 1
            self.counts["gc.ms"] += (time.perf_counter() - self._gc_start) * 1e3

    def remove(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- reading ----------------------------------------------------------

    def self_seconds(self, under: str | None = None) -> dict[str, float]:
        """Total self time per span name: duration minus direct children.

        With `under`, only spans inside a span of that name count, so the
        benchmark's own work between rounds stays out.
        """
        child = [0.0] * len(self.spans)
        inside = [under is None] * len(self.spans)
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                inside[i] = inside[i] or inside[parent]
            inside[i] = inside[i] or name == under
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            if inside[i]:
                out[name] += (end - start) - child[i]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


# -- counters fed from call results ---------------------------------------


def _on_solve(tracer: Tracer, args, kwargs, plan) -> None:
    cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
    n, m = plan.plan.shape
    tracer.counts["sinkhorn.solves"] += 1
    tracer.counts["sinkhorn.cells"] += n * m
    tracer.counts["sinkhorn.rows"] += n
    tracer.counts["sinkhorn.converged"] += cfg is not None and plan.residual < cfg.tol
    tracer.samples["sinkhorn.iters"].append(plan.iters_used)


def _on_compound(tracer: Tracer, args, kwargs, result) -> None:
    report = result[1]
    tracer.counts["augment.points_accumulated"] += report.points_accumulated
    tracer.counts["augment.labels_masked"] += report.labels_masked


def _on_forward(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["network.forward_points"] += len(args[1])


def install_setup(tracer: Tracer) -> None:
    """Spans around the set-up calls the harness makes through module attributes."""
    tracer.patch(synthetic, "make_split", "synthetic")
    tracer.patch(scenes, "read_scene", "scenes.read")
    tracer.patch(network, "load_checkpoint", "network.load_checkpoint")


def install_train(tracer: Tracer) -> None:
    """Spans at every layer boundary train_step crosses."""
    tracer.patch(training, "train_step", "training.step")
    tracer.patch(training, "standard_augment", "augment.standard")
    tracer.patch(training, "compound_augment", "augment.compound", _on_compound)
    tracer.patch(training, "substream", "streams")
    tracer.patch(network.BoundModel, "forward", "network.forward", _on_forward)
    for owner in (training, geometry_embedding):
        tracer.patch(owner, "embed_var", "geometry_embedding.embed")
    tracer.patch(training, "embed", "geometry_embedding.embed")
    for attr in ("geometry_property_loss", "geometry_consistency_loss"):
        tracer.patch(training, attr, "geometry_embedding.loss")
    for attr in ("reliable_points", "class_plan", "class_update", "momentum_update"):
        tracer.patch(training, attr, "geometry_embedding.update")
    tracer.patch(geometry_embedding, "solve", "sinkhorn", _on_solve)
    tracer.patch(autodiff.GradientTape, "backward", "autodiff.backward")
    tracer.patch(training, "sgd_step", "network.sgd")
    tracer.count_vars()
    tracer.count_gc()


def install_eval(tracer: Tracer) -> None:
    """Spans at every layer boundary one TTA-scored scene crosses."""
    tracer.patch(training, "tta_predict", "training.tta")
    tracer.patch(training, "predict_logits", "network.predict")
    tracer.patch(training, "rotate_z", "augment.rotate")
    tracer.patch(training, "softmax", "network.softmax")
    tracer.patch(network.BoundModel, "forward", "network.forward", _on_forward)
    tracer.patch(training, "confusion_matrix", "metrics.confusion")
    tracer.count_vars()
    tracer.count_gc()


# Per-layer metric name -> (source, unit). "self:<span>" is the span's self
# time in ms and "count:<counter>" a counter kept in the metric's unit; both
# are divided by the number of operations (steps or scored scenes), or by
# the number of set-ups for the set-up layers.
LOOP_METRICS = {
    "sinkhorn.ms": ("self:sinkhorn", "ms"),
    "sinkhorn.solves": ("count:sinkhorn.solves", "count"),
    "sinkhorn.cells": ("count:sinkhorn.cells", "count"),
    "geometry_embedding.embed_ms": ("self:geometry_embedding.embed", "ms"),
    "geometry_embedding.loss_ms": ("self:geometry_embedding.loss", "ms"),
    "geometry_embedding.update_ms": ("self:geometry_embedding.update", "ms"),
    "geometry_embedding.reliable_points": ("count:sinkhorn.rows", "count"),
    "augment.standard_ms": ("self:augment.standard", "ms"),
    "augment.compound_ms": ("self:augment.compound", "ms"),
    "augment.points_accumulated": ("count:augment.points_accumulated", "count"),
    "augment.labels_masked": ("count:augment.labels_masked", "count"),
    "network.forward_ms": ("self:network.forward", "ms"),
    "network.forward_points": ("count:network.forward_points", "count"),
    "network.sgd_ms": ("self:network.sgd", "ms"),
    "autodiff.backward_ms": ("self:autodiff.backward", "ms"),
    "streams.ms": ("self:streams", "ms"),
    "training.step_self_ms": ("self:training.step", "ms"),
    "autodiff.vars": ("count:autodiff.vars", "count"),
    "autodiff.grad_mb": ("count:autodiff.grad_mb", "MB"),
    "gc.collections": ("count:gc.collections", "count"),
    "gc.ms": ("count:gc.ms", "ms"),
    "process.minor_faults": ("count:process.minor_faults", "count"),
    "network.predict_ms": ("self:network.predict", "ms"),
    "augment.rotate_ms": ("self:augment.rotate", "ms"),
    "network.softmax_ms": ("self:network.softmax", "ms"),
    "metrics.confusion_ms": ("self:metrics.confusion", "ms"),
    "training.tta_self_ms": ("self:training.tta", "ms"),
}

SETUP_METRICS = {
    "synthetic.ms": ("self:synthetic", "ms"),
    "scenes.read_ms": ("self:scenes.read", "ms"),
    "network.load_checkpoint_ms": ("self:network.load_checkpoint", "ms"),
}


def _per_op(tracer: Tracer, table: dict, ops: int,
            under: str | None) -> dict[str, tuple[float, str]]:
    selfs = tracer.self_seconds(under)
    out = {}
    for metric, (source, unit) in table.items():
        kind, key = source.split(":", 1)
        total = selfs.get(key, 0.0) * 1e3 if kind == "self" else tracer.counts.get(key, 0.0)
        out[metric] = (total / ops, unit)
    return out


def layer_metrics(loop: Tracer, loop_ops: int, setup: Tracer,
                  setups: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, per operation (or per set-up for set-up layers)."""
    out = _per_op(loop, LOOP_METRICS, loop_ops, ROUND)
    iters = loop.samples["sinkhorn.iters"]
    solves = loop.counts.get("sinkhorn.solves", 0.0)
    out["sinkhorn.iters"] = (float(np.mean(iters)) if iters else 0.0, "count")
    out["sinkhorn.iters_p90"] = (float(np.percentile(iters, 90)) if iters else 0.0, "count")
    out["sinkhorn.converged_share"] = (
        loop.counts.get("sinkhorn.converged", 0.0) / solves if solves else 0.0, "share")
    out.update(_per_op(setup, SETUP_METRICS, setups, None))
    return out
