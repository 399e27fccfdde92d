"""The benchmark's workloads: two training variants and TTA evaluation.

Every workload runs at the acceptance-experiment scale (600 points per
scene, batch 4, the ablation base config). The workload seed makes the
scenes; the program's own seed (model init, augmentation and batch order
streams) stays at TRAIN_SEED, as a fixed setting of the program under test.
A run has four parts:

  1. set-up, timed as a fixed block of `setup_blocks` sub-blocks of
     `setup_reps` set-ups each, once before anything else and once more
     after the timed rounds, so that it samples the host at both ends of the
     run but never runs between two timed operations. setup_s is the median
     over all sub-blocks of a sub-block's time per set-up;
  2. an untimed warm-up through the public entry point (`train`, or
     `evaluate` with TTA), whose outputs are checked against independent
     computations;
  3. timed rounds, each one the warm-up's call again, until `seconds` have
     passed. An operation is one `train_step` or one `tta_predict` made by
     that call; a wrapper times it and then checks its output against the
     warm-up and the independent references, outside its timer;
  4. metrics: end-to-end ones untraced, per-layer ones when traced. Peak
     RSS is read when the first timed round ends, so it covers set-up, the
     warm-up and one round whatever the run's length.

A traced run installs its spans only after the warm-up, so the warm-up
stays untraced and each traced step is compared bitwise with the untraced
warm-up step at the same position.
"""

from __future__ import annotations

import contextlib
import math
import os
import resource
import shutil
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from geoseg import geometry_embedding, network, scenes, synthetic, training
from geoseg.scenes import Scene

import checks
import tracing

WORKLOADS = ("train_full", "train_baseline", "eval_tta")
TRAIN_VARIANTS = {"train_full": "full", "train_baseline": "baseline"}
ACTIVE_LOSSES = {"full": ("seg", "gpl", "gcl"), "baseline": ("seg",)}
TRAIN_SEED = 0


@dataclass(frozen=True)
class Scale:
    """Input sizes and set-up block; `acceptance` is what the benchmark measures."""

    points: int = 600
    n_train: int = 200
    epochs: int = 2
    n_test: int = 50
    severity: float = 1.5
    setup_blocks: int = 5  # per end of the run
    train_setup_reps: int = 2  # one training set-up takes about 0.1 s
    eval_setup_reps: int = 25  # one eval_tta set-up takes about 8 ms
    ckpt_scenes: int = 40
    ckpt_epochs: int = 2


SCALES = {
    "acceptance": Scale(),
    "tiny": Scale(points=60, n_train=8, epochs=2, n_test=3, setup_blocks=2,
                  train_setup_reps=1, eval_setup_reps=2, ckpt_scenes=8, ckpt_epochs=1),
}


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)  # run-level check failures
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    def fail_op(self, problems: list[str]) -> None:
        self.failed += 1
        if len(self.info.setdefault("op_problems", [])) < 20:
            self.info["op_problems"].extend(problems)


def timed_setup(fn, blocks: int, reps: int) -> tuple[object, list[float]]:
    """Run fn blocks x reps times; return its last result and each block's time per call."""
    per_call = []
    for _ in range(blocks):
        start = time.perf_counter()
        for _ in range(reps):
            result = fn()
        per_call.append((time.perf_counter() - start) / reps)
    return result, per_call


@contextlib.contextmanager
def patched(owner, attr: str, make_wrapper):
    """Replace owner.attr by make_wrapper(original) for the duration of the block."""
    original = getattr(owner, attr)
    setattr(owner, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


class OpTimer:
    """Times every call of one program function and checks its output after the timer.

    `check(args, result)` returns a list of problems; a call that raises or
    fails its check counts as a failed operation.
    """

    def __init__(self, out: Outcome, check):
        self.out = out
        self.check = check
        self.seconds: list[float] = []

    def wrap(self, fn):
        def timed(*args, **kwargs):
            self.out.attempted += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.out.fail_op([f"operation {self.out.attempted}: "
                                  f"{type(exc).__name__}: {exc}"])
                raise
            self.seconds.append(time.perf_counter() - t0)
            bad = self.check(args, result)
            if bad:
                self.out.fail_op(bad)
            return result

        return timed


def synth_config(seed: int, scale: Scale) -> synthetic.SynthConfig:
    return synthetic.SynthConfig(
        points_per_scene=scale.points, shift_severity=scale.severity, seed=seed)


def train_config(variant: str, epochs: int) -> training.TrainConfig:
    base = replace(training.ablation_base_config(), seed=TRAIN_SEED, epochs=epochs)
    return training.variant_config(base, variant)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _bits(losses: training.StepLosses) -> bytes:
    return struct.pack("<4d?", losses.seg, losses.gpl, losses.gcl, losses.total, losses.skipped)


def _timed_rounds(out: Outcome, seconds: float, one_round) -> float:
    """Call one_round() until `seconds` have passed; return peak RSS after the first."""
    peak_mb = math.nan
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        try:
            one_round()
        except Exception as exc:  # already counted as a failed operation
            out.problems.append(f"round {rounds} stopped: {type(exc).__name__}: {exc}")
        rounds += 1
        if rounds == 1:
            peak_mb = peak_rss_mb()
    out.info.update(rounds=rounds, measured_s=time.perf_counter() - start,
                    peak_rss_end_mb=peak_rss_mb())
    return peak_mb


def _finish(out: Outcome, trace: bool, loop: tracing.Tracer, setup: tracing.Tracer,
            setup_s: list[float], setups: int, op_s: list[float], scenes_done: int,
            final_loss: float, peak_mb: float, trace_path: Path) -> Outcome:
    out.info.update(setup_samples_s=setup_s, ops_timed=len(op_s))
    if not op_s:
        return out
    if trace:
        out.metrics = tracing.layer_metrics(loop, out.attempted, setup, setups)
        out.info["traced_scenes_per_s"] = scenes_done / float(np.sum(op_s))
        loop.write(trace_path)
        return out
    ms = np.asarray(op_s) * 1e3
    out.metrics["setup_s"] = (float(np.median(setup_s)), "s")
    out.metrics["scenes_per_s"] = (scenes_done / float(np.sum(op_s)), "scenes/s")
    out.metrics["step_ms_p50"] = (float(np.median(ms)), "ms")
    if ms.size >= 100:  # at least ten samples lie beyond the 90th percentile
        out.metrics["step_ms_p90"] = (float(np.percentile(ms, 90)), "ms")
    out.metrics["peak_rss_mb"] = (peak_mb, "MB")
    out.metrics["final_loss"] = (final_loss, "nats")
    return out


def run_train(workload: str, seed: int, seconds: float, trace: bool, scale: Scale,
              out_dir: Path) -> Outcome:
    variant = TRAIN_VARIANTS[workload]
    active = ACTIVE_LOSSES[variant]
    scfg = synth_config(seed, scale)
    cfg = train_config(variant, scale.epochs)
    table = scfg.classes
    out = Outcome()

    def set_up():
        train_scenes, _ = synthetic.make_split(scfg, scale.n_train, 0)
        training.init_state(cfg, table)
        return train_scenes

    setup_tracer = tracing.Tracer()
    loop_tracer = tracing.Tracer()
    if trace:
        tracing.install_setup(setup_tracer)
    with setup_tracer, loop_tracer:
        reps = scale.train_setup_reps
        train_scenes, setup_s = timed_setup(set_up, scale.setup_blocks, reps)

        # Warm-up: the public train() on the same scenes, every plan checked as made.
        def checked_solve(solve):
            def check(cost, sink_cfg):
                plan = solve(cost, sink_cfg)
                out.problems.extend(checks.check_plan(plan, sink_cfg.max_iters))
                out.info["plans_checked"] = out.info.get("plans_checked", 0) + 1
                return plan
            return check

        with patched(geometry_embedding, "solve", checked_solve):
            warm = training.train(cfg, train_scenes, table)
        out.problems.extend(checks.check_loss_falls(warm.epoch_totals))
        reference = [_bits(s) for s in warm.step_losses]
        warm_loss = float(np.mean([s.total for s in warm.step_losses]))
        initial = training.init_state(cfg, table).embedding.blocks
        cap = checks.norm_cap(initial)
        k = 0  # the step's position within its round

        def check_step(args, losses) -> list[str]:
            nonlocal k
            bad = checks.check_step_losses(losses, active)
            if k >= len(reference) or _bits(losses) != reference[k]:
                bad.append(f"step {k}: losses differ from the warm-up's")
            if variant == "full":
                bad += checks.check_envelope(args[0].embedding.blocks, cap)
            k += 1
            return bad

        timer = OpTimer(out, check_step)
        final_loss = math.nan

        def one_round():
            nonlocal k, final_loss
            k = 0
            result = train_round()
            if variant == "baseline":
                out.problems.extend(checks.check_frozen(result.state.embedding.blocks, initial))
            final_loss = float(np.mean([s.total for s in result.step_losses]))
            if final_loss != warm_loss:
                out.problems.append(
                    f"round's mean loss {final_loss!r} differs from train()'s {warm_loss!r}")

        def train_round():
            return training.train(cfg, train_scenes, table)

        if trace:
            tracing.install_train(loop_tracer)
            train_round = loop_tracer.round(train_round)
        with patched(training, "train_step", lambda fn: loop_tracer.operation(timer.wrap(fn))
                     if trace else timer.wrap(fn)):
            peak_mb = _timed_rounds(out, seconds, one_round)
        setup_s += timed_setup(set_up, scale.setup_blocks, reps)[1]
    return _finish(out, trace, loop_tracer, setup_tracer, setup_s,
                   len(setup_s) * reps, timer.seconds,
                   len(timer.seconds) * cfg.batch_size, final_loss, peak_mb,
                   out_dir / "traces" / f"{workload}-seed{seed}.jsonl")


# -- eval_tta ---------------------------------------------------------------


def prepare_eval(data_dir: Path, seed: int, scale: Scale) -> None:
    """Train a short seeded checkpoint and write it and the shifted test split.

    Also stores every written array in `written.npz`, so the loading side can
    check the disk round trip bit for bit.
    """
    scfg = synth_config(seed, scale)
    train_scenes, test_scenes = synthetic.make_split(scfg, scale.ckpt_scenes, scale.n_test)
    cfg = train_config("full", scale.ckpt_epochs)
    state = training.train(cfg, train_scenes, scfg.classes).state
    network.save_checkpoint(data_dir / "checkpoint.gseg", state.model, state.relation,
                            state.embedding)
    model = state.model
    arrays = {"head_w": model.head_weight, "head_b": model.head_bias,
              "relation": state.relation.values, "blocks": state.embedding.blocks}
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        arrays[f"w{i}"] = w
        arrays[f"b{i}"] = b
    for j, scene in enumerate(test_scenes):
        stem = f"{j:06d}"
        scenes.write_scene(data_dir / "scenes", Scene(scene.cloud, scene.labels, stem))
        # A point file holds float32 records, so that is what was written.
        arrays[f"points_{stem}"] = scene.cloud.points.astype("<f4")
        arrays[f"labels_{stem}"] = scene.labels.labels
    np.savez(data_dir / "written.npz", **arrays)


def _round_trip_problems(written, model, relation, embedding, loaded) -> list[str]:
    problems = []
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        problems += checks.check_same_bytes(f"weight {i}", w, written[f"w{i}"])
        problems += checks.check_same_bytes(f"bias {i}", b, written[f"b{i}"])
    problems += checks.check_same_bytes("head weight", model.head_weight, written["head_w"])
    problems += checks.check_same_bytes("head bias", model.head_bias, written["head_b"])
    problems += checks.check_same_bytes("relation", relation.values, written["relation"])
    problems += checks.check_same_bytes("embedding", embedding.blocks, written["blocks"])
    stems = sorted(k[len("points_"):] for k in written if k.startswith("points_"))
    if [s.id for s in loaded] != stems:
        problems.append(f"loaded scenes {[s.id for s in loaded]} != written {stems}")
    for scene in loaded:
        if f"points_{scene.id}" in written:
            problems += checks.check_same_bytes(
                f"points of {scene.id}", scene.cloud.points,
                written[f"points_{scene.id}"].astype(np.float64))
            problems += checks.check_same_bytes(
                f"labels of {scene.id}", scene.labels.labels, written[f"labels_{scene.id}"])
    return problems


def run_eval(seed: int, seconds: float, trace: bool, scale: Scale, out_dir: Path,
             scale_name: str) -> Outcome:
    data_dir = out_dir / f"eval_tta-seed{seed}-{os.getpid()}"
    # The checkpoint's training run and the scene writes happen in a child
    # process, so neither their time nor their memory lands in this run.
    subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--prepare", str(data_dir),
         "--seed", str(seed), "--scale", scale_name],
        check=True, timeout=600)
    try:
        return _eval_rounds(data_dir, seed, seconds, trace, scale, out_dir)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


def _eval_rounds(data_dir: Path, seed: int, seconds: float, trace: bool, scale: Scale,
                 out_dir: Path) -> Outcome:
    out = Outcome()
    table = synthetic.default_class_table()
    scene_root = data_dir / "scenes"
    c = table.num_classes

    def set_up():
        loaded_model = network.load_checkpoint(data_dir / "checkpoint.gseg")
        return loaded_model, [scenes.read_scene(scene_root, stem, table)
                              for stem in scenes.list_stems(scene_root)]

    setup_tracer = tracing.Tracer()
    loop_tracer = tracing.Tracer()
    if trace:
        tracing.install_setup(setup_tracer)
    with setup_tracer, loop_tracer:
        reps = scale.eval_setup_reps
        ((model, relation, embedding), loaded), setup_s = timed_setup(
            set_up, scale.setup_blocks, reps)

        with np.load(data_dir / "written.npz") as npz:
            written = {k: npz[k] for k in npz.files}
        out.problems.extend(_round_trip_problems(written, model, relation, embedding, loaded))

        # Warm-up: the public evaluate() with TTA, and the independent reference.
        warm = training.evaluate(model, loaded, table, tta=True)
        reference = [checks.reference_tta_probs(written, s.cloud.points) for s in loaded]
        gts = [s.labels.labels for s in loaded]
        ignore_id = loaded[0].labels.ignore_id
        preds_round: list[np.ndarray] = []
        nll: list[np.ndarray] = []

        def check_scene(args, probs) -> list[str]:
            j = len(preds_round)
            preds_round.append(np.argmax(probs, axis=1))
            if j >= len(loaded) or args[1] is not loaded[j].cloud:
                return [f"scene {j}: scored out of order"]
            if len(nll) < len(loaded):
                valid = np.nonzero(gts[j] != ignore_id)[0]
                nll.append(-np.log(probs[valid, gts[j][valid].astype(np.int64)]))
            return [f"scene {loaded[j].id}: {p}" for p in checks.check_tta(probs, reference[j])]

        timer = OpTimer(out, check_scene)

        def one_round():
            preds_round.clear()
            report = eval_round()
            counted = checks.count_miou(gts, preds_round, c, ignore_id)
            out.problems.extend(checks.check_miou(report.miou, counted))
            if not np.array_equal(report.confusion, warm.confusion):
                out.problems.append("round confusion matrix differs from evaluate()'s")

        def eval_round():
            return training.evaluate(model, loaded, table, tta=True)

        if trace:
            tracing.install_eval(loop_tracer)
            eval_round = loop_tracer.round(eval_round)
        with patched(training, "tta_predict", lambda fn: loop_tracer.operation(timer.wrap(fn))
                     if trace else timer.wrap(fn)):
            peak_mb = _timed_rounds(out, seconds, one_round)
        setup_s += timed_setup(set_up, scale.setup_blocks, reps)[1]
        out.info["miou"] = warm.miou
    final_loss = float(np.mean(np.concatenate(nll))) if nll else math.nan
    return _finish(out, trace, loop_tracer, setup_tracer, setup_s,
                   len(setup_s) * reps, timer.seconds, len(timer.seconds),
                   final_loss, peak_mb, out_dir / "traces" / f"eval_tta-seed{seed}.jsonl")


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale_name: str,
                 out_dir: Path) -> Outcome:
    scale = SCALES[scale_name]
    if workload in TRAIN_VARIANTS:
        return run_train(workload, seed, seconds, trace, scale, out_dir)
    if workload == "eval_tta":
        return run_eval(seed, seconds, trace, scale, out_dir, scale_name)
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
