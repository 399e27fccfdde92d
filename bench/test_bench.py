"""Quick tests of the benchmark itself: tiny workloads, and every check
shown to fail on a corrupted output.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import importlib.util
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if importlib.util.find_spec("geoseg") is None:
    sys.path.insert(0, str(ROOT / "src"))

from geoseg import geometry_embedding, network, training  # noqa: E402
from geoseg.sinkhorn import SinkhornConfig, solve  # noqa: E402
from geoseg.synthetic import SynthConfig, make_split  # noqa: E402

import checks  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(workload, tmp_path, trace=False, seconds=0.5):
    return harness.run_workload(workload, seed=3, seconds=seconds, trace=trace,
                                scale_name="tiny", out_dir=tmp_path)


def units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_workload_runs_clean_and_reports_every_end_to_end_metric(workload, tmp_path):
    out = tiny(workload, tmp_path)
    assert out.problems == []
    assert out.failed == 0 and out.attempted >= 1
    scale = harness.SCALES["tiny"]
    per_round = scale.n_test if workload == "eval_tta" else scale.n_train // 4 * scale.epochs
    assert out.attempted == out.info["rounds"] * per_round == out.info["ops_timed"]
    expected = units("end_to_end")
    if out.info["ops_timed"] < 100:  # too few samples for a 90th percentile
        del expected["step_ms_p90"]
    assert {k: u for k, (_, u) in out.metrics.items()} == expected
    assert all(v > 0 and math.isfinite(v) for v, _ in out.metrics.values())


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_traced_run_reports_every_layer_metric_and_restores_the_program(workload, tmp_path):
    def program():
        return (training.train_step, training.tta_predict, training.confusion_matrix,
                network.BoundModel.forward, geometry_embedding.solve)

    originals = program()
    out = tiny(workload, tmp_path, trace=True, seconds=0.2)
    assert out.problems == [] and out.failed == 0
    assert {k: u for k, (_, u) in out.metrics.items()} == units("per_layer")
    assert program() == originals
    assert (tmp_path / "traces" / f"{workload}-seed3.jsonl").stat().st_size > 0


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)


def test_self_time_subtracts_children():
    t = tracing.Tracer()
    t.spans = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0], ["inner", 5.0, 6.0, 0]]
    assert t.self_seconds() == {"outer": 6.0, "inner": 4.0}


# -- every check fails on a corrupted output ---------------------------------


def test_plan_check_fails_on_a_plan_scaled_by_two():
    cost = np.random.default_rng(0).random((30, 8))
    plan = solve(cost, SinkhornConfig(max_iters=50))
    assert checks.check_plan(plan, 50) == []
    assert checks.check_plan(replace(plan, plan=plan.plan * 2), 50)
    assert checks.check_plan(replace(plan, iters_used=51), 50)


def test_plan_check_fails_inside_a_run(tmp_path, monkeypatch):
    solve_orig = geometry_embedding.solve
    monkeypatch.setattr(geometry_embedding, "solve",
                        lambda cost, cfg: (lambda p: replace(p, plan=p.plan * 2))(
                            solve_orig(cost, cfg)))
    out = tiny("train_full", tmp_path, seconds=0.1)
    assert any("residual" in p for p in out.problems)


def test_loss_checks_fail_on_a_nan_loss(tmp_path, monkeypatch):
    nan = training.StepLosses(seg=math.nan, gpl=1.0, gcl=1.0, total=math.nan)
    assert checks.check_step_losses(nan, ("seg", "gpl", "gcl"))
    assert checks.check_loss_falls([1.0, math.nan])
    assert checks.check_loss_falls([1.0, 1.5])

    step = training.train_step

    def nan_on_third(state, batch, cfg, epoch):
        losses = step(state, batch, cfg, epoch)
        return replace(losses, total=math.nan) if state.step_count == 3 else losses

    monkeypatch.setattr(training, "train_step", nan_on_third)
    out = tiny("train_baseline", tmp_path, seconds=0.1)
    assert out.failed >= 1
    assert any("total loss is nan" in p for p in out.info["op_problems"])


def test_embedding_checks_fail_on_moved_blocks():
    blocks = np.ones((3, 4, 2)) / np.sqrt(8)
    cap = checks.norm_cap(blocks)
    assert checks.check_envelope(blocks, cap) == []
    assert checks.check_envelope(blocks * 2, cap)
    moved = blocks.copy()
    moved[1, 0, 0] += 1e-12
    assert checks.check_frozen(blocks.copy(), blocks) == []
    assert checks.check_frozen(moved, blocks)


def _small_model_and_scene():
    scfg = SynthConfig(points_per_scene=60, seed=5)
    train_scenes, test_scenes = make_split(scfg, 4, 1)
    cfg = replace(training.ablation_base_config(), epochs=1, seed=5)
    model = training.train(cfg, train_scenes, scfg.classes).state.model
    arrays = {"head_w": model.head_weight, "head_b": model.head_bias}
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        arrays[f"w{i}"], arrays[f"b{i}"] = w, b
    return model, arrays, test_scenes[0], scfg.classes


def test_tta_and_miou_checks_fail_on_one_flipped_prediction():
    model, arrays, scene, table = _small_model_and_scene()
    probs = training.tta_predict(model, scene.cloud)
    reference = checks.reference_tta_probs(arrays, scene.cloud.points)
    assert checks.check_tta(probs, reference) == []

    preds = np.argmax(probs, axis=1)
    flipped = probs.copy()
    flipped[0] = np.roll(flipped[0], 1) if probs.shape[1] > 1 else flipped[0]
    if np.argmax(flipped[0]) == preds[0]:
        flipped[0, preds[0]] = 0.0
    assert checks.check_tta(flipped, reference)

    gt = scene.labels.labels
    report = training.evaluate(model, [scene], table, tta=True)
    counted = checks.count_miou([gt], [preds], table.num_classes, scene.labels.ignore_id)
    assert checks.check_miou(report.miou, counted) == []
    wrong = preds.copy()
    wrong[0] = (gt[0] + 1) % table.num_classes if preds[0] == gt[0] else gt[0]
    miscounted = checks.count_miou([gt], [wrong], table.num_classes, scene.labels.ignore_id)
    assert checks.check_miou(report.miou, miscounted)


def test_tta_check_fails_inside_a_run(tmp_path, monkeypatch):
    predict = training.tta_predict

    def flip_first_point(model, cloud, *args):
        probs = predict(model, cloud, *args)
        probs[0] = probs[0][::-1]
        return probs

    monkeypatch.setattr(training, "tta_predict", flip_first_point)
    out = tiny("eval_tta", tmp_path, seconds=0.1)
    assert out.failed == out.attempted


def test_round_trip_check_fails_on_a_changed_array():
    a = np.arange(6, dtype=np.float64)
    assert checks.check_same_bytes("a", a, a.copy()) == []
    b = a.copy()
    b[2] = np.nextafter(b[2], 10.0)
    assert checks.check_same_bytes("a", a, b)
    assert checks.check_same_bytes("a", a, a.astype(np.float32))


def test_run_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train_full", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
