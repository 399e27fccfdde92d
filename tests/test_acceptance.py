"""End-to-end acceptance battery.

Run with `pytest -v tests/test_acceptance.py` for one pass/fail line per
criterion. The shared domain-shift experiment (criteria 5-7) trains
3 variants x 5 seeds and takes several minutes; everything else is fast.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from geoseg.augment import (
    AugmentationConfig,
    compound_augment,
    fog_attenuation,
    matter_accumulation,
)
from geoseg.geometry_embedding import EmbeddingMatrix, momentum_update
from geoseg.gradcheck import run_gradient_check
from geoseg.scenes import IGNORE_ID, SceneFormatError, read_scene, write_scene
from geoseg.sinkhorn import SinkhornConfig, solve
from geoseg.streams import substream
from geoseg.synthetic import SynthConfig, generate_scene, make_split
from geoseg.training import TrainConfig, ablation_base_config, run_ablation, train, variant_config

EXPERIMENT_SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="module")
def experiment():
    """The full domain-shift battery at `geoseg ablate`'s default scale, with wall time."""
    start = time.perf_counter()
    result = run_ablation(TrainConfig(), SynthConfig(shift_severity=1.5), EXPERIMENT_SEEDS,
                          n_train=200, n_test=50)
    elapsed = time.perf_counter() - start
    return result, elapsed


def marginal_residual(plan: np.ndarray) -> float:
    """L1 distance of the plan's row and column sums from 1/n and 1/m."""
    n, m = plan.shape
    rows = np.abs(plan.sum(axis=1) - 1.0 / n).sum()
    cols = np.abs(plan.sum(axis=0) - 1.0 / m).sum()
    return float(rows + cols)


def reference_plan(cost, sigma, iters=200_000, tol=1e-13):
    """Plain exp-domain scaling iteration, run far past the solver's target."""
    n, m = cost.shape
    kernel = np.exp(-np.asarray(cost, dtype=np.float64) / sigma)
    row = np.full(n, 1.0 / n)
    col = np.full(m, 1.0 / m)
    u = np.ones(n)
    v = np.ones(m)
    for _ in range(iters):
        u = row / (kernel @ v)
        v = col / (kernel.T @ u)
        plan = u[:, None] * kernel * v[None, :]
        if marginal_residual(plan) < tol:
            break
    return u[:, None] * kernel * v[None, :]


def test_criterion_1_transport_plans_match_reference():
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    worst_residual = 0.0
    worst_mass = 0.0
    worst_entry = 0.0
    for k in range(200):
        n = int(rng.integers(1, 65))
        m = int(rng.integers(1, 17))
        cost = rng.random((n, m))
        sigma = 0.05 if k % 2 == 0 else 0.5
        result = solve(cost, SinkhornConfig(sigma=sigma, max_iters=2000, tol=1e-11))
        worst_residual = max(worst_residual, marginal_residual(result.plan))
        worst_mass = max(worst_mass, abs(float(result.plan.sum()) - 1.0))
        entry = float(np.abs(result.plan - reference_plan(cost, sigma)).max())
        worst_entry = max(worst_entry, entry)
    elapsed = time.perf_counter() - start
    print(f"residual {worst_residual:.2e} mass {worst_mass:.2e} "
          f"entry {worst_entry:.2e} elapsed {elapsed:.2f}s")
    assert worst_residual < 1e-8
    assert worst_mass <= 1e-9
    assert worst_entry <= 1e-9
    assert elapsed < 5.0


def test_criterion_2_analytic_gradients_match_finite_differences():
    start = time.perf_counter()
    report = run_gradient_check(seed=0, cases=20)
    elapsed = time.perf_counter() - start
    print(f"cases {report.cases} coords {report.coords_checked} "
          f"max_diff {report.max_abs_diff:.2e} elapsed {elapsed:.2f}s")
    assert report.cases == 20
    assert not report.failures
    assert report.embedding_untouched
    assert report.passed
    assert elapsed < 60.0


def test_criterion_3_augmentation_operators_are_exact():
    cfg = AugmentationConfig(rho=0.3, h1=0.05, h2=0.3, fog_alpha_max=0.1,
                             fog_threshold=0.05)
    synth = SynthConfig(points_per_scene=80)
    table = synth.classes
    start = time.perf_counter()
    for i in range(100):
        scene = generate_scene(synth, i)
        pts = scene.cloud.points
        raw = scene.labels.labels

        lifted, _ = matter_accumulation(scene, table, cfg, substream(7, "acc", i))
        eligible = np.isin(raw, list(table.accumulable)).sum()
        moved = np.nonzero((lifted.cloud.points != pts).any(axis=1))[0]
        assert moved.size == math.floor(cfg.rho * eligible)
        dz = lifted.cloud.points[moved, 2] - pts[moved, 2]
        assert np.all(dz >= cfg.h1 - 1e-12)
        assert np.all(dz <= cfg.h2 + 1e-12)
        assert_array_equal(lifted.cloud.points[:, :2], pts[:, :2])
        untouched = np.setdiff1d(np.arange(pts.shape[0]), moved)
        assert lifted.cloud.points[untouched].tobytes() == pts[untouched].tobytes()
        assert_array_equal(lifted.labels.labels, raw)

        foggy, _ = fog_attenuation(scene, cfg, substream(7, "fog", i))
        assert foggy.cloud.points[:, :3].tobytes() == pts[:, :3].tobytes()
        faded = foggy.cloud.points[:, 3]
        assert np.all(faded <= pts[:, 3])
        expected = np.where(faded < cfg.fog_threshold, np.uint16(IGNORE_ID), raw)
        assert_array_equal(foggy.labels.labels, expected)

        off = replace(cfg, beta1=0.0, beta2=0.0)
        identical, _ = compound_augment(scene, table, off, substream(7, "off", i))
        assert identical is scene
    elapsed = time.perf_counter() - start
    print(f"100 scenes exact, elapsed {elapsed:.2f}s")
    assert elapsed < 5.0


def test_criterion_4_momentum_update_norm_behavior():
    def fresh(epsilon):
        return EmbeddingMatrix.initial(
            4, 6, 3, rng=substream(3, "init-embedding")
        )

    def random_updates(rng):
        classes = rng.choice(4, size=rng.integers(1, 5), replace=False)
        return {int(c): rng.normal(0.0, 1.0, size=(6, 3)) for c in classes}

    frozen = fresh(1.0)
    before = frozen.blocks.tobytes()
    rng = np.random.default_rng(42)
    for _ in range(100):
        momentum_update(frozen, random_updates(rng), 1.0)
    assert frozen.blocks.tobytes() == before

    overwrite = fresh(0.0)
    rng = np.random.default_rng(43)
    updates = random_updates(rng)
    momentum_update(overwrite, updates, 0.0)
    for c in updates:
        assert np.linalg.norm(overwrite.blocks[c]) == pytest.approx(1.0, abs=1e-12)

    tracked = fresh(0.9999)
    initial_norms = np.linalg.norm(tracked.blocks, axis=(1, 2))
    cap = np.maximum(initial_norms, 1.0) + 1e-6
    rng = np.random.default_rng(44)
    for _ in range(1000):
        momentum_update(tracked, random_updates(rng), 0.9999)
        norms = np.linalg.norm(tracked.blocks, axis=(1, 2))
        assert np.all(norms <= cap)
    print("norm envelope held over 1000 updates")


def test_criterion_5_domain_shift_component_ladder(experiment):
    result, elapsed = experiment
    baseline = result.mean_miou("baseline")
    cge = result.mean_miou("cge")
    full = result.mean_miou("full")
    print(f"baseline {baseline:.4f} cge {cge:.4f} full {full:.4f} "
          f"elapsed {elapsed:.1f}s")
    assert full > cge > baseline
    assert full - baseline >= 0.02
    assert elapsed < 900.0


def test_criterion_6_losses_halve_and_reruns_are_bitwise(experiment):
    result, _ = experiment
    for run in result.runs:
        ratio = run.epoch_totals[-1] / run.epoch_totals[0]
        assert ratio < 0.5, f"{run.variant} seed {run.seed}: ratio {ratio:.3f}"

    scfg = replace(SynthConfig(), seed=0, shift_severity=1.5)
    train_scenes, _ = make_split(scfg, 200, 50)
    cfg = variant_config(replace(ablation_base_config(), seed=0), "full")
    rerun = train(cfg, train_scenes, scfg.classes)
    first = next(r for r in result.runs if r.variant == "full" and r.seed == 0)
    assert rerun.epoch_totals == first.epoch_totals
    print(f"worst ratio {max(r.epoch_totals[-1] / r.epoch_totals[0] for r in result.runs):.3f}, "
          f"rerun bitwise identical")


def test_criterion_7_tta_does_not_hurt_mean_miou(experiment):
    result, _ = experiment
    delta = result.mean_miou("full", tta=True) - result.mean_miou("full")
    print(f"tta delta {delta:+.4f}")
    assert delta >= 0.0


def test_criterion_8_scene_io_round_trip_and_diagnostics(tmp_path):
    synth = SynthConfig(points_per_scene=50, seed=11)
    table = synth.classes
    root = tmp_path / "roundtrip"
    start = time.perf_counter()
    for i in range(1000):
        scene = generate_scene(synth, i)
        write_scene(root, scene)
        back = read_scene(root, scene.id, table)
        assert back.cloud.points.tobytes() == scene.cloud.points.tobytes()
        assert_array_equal(back.labels.labels, scene.labels.labels)
        assert back.id == scene.id
    elapsed = time.perf_counter() - start

    probe = generate_scene(synth, 0)
    bad = tmp_path / "bad"
    write_scene(bad, probe)
    point_path = bad / "velodyne" / f"{probe.id}.bin"
    point_path.write_bytes(point_path.read_bytes()[:35])
    with pytest.raises(SceneFormatError, match=r"not a multiple of 16.*byte 32"):
        read_scene(bad, probe.id, table)

    write_scene(bad, probe)
    label_path = bad / "labels" / f"{probe.id}.label"
    label_path.write_bytes(label_path.read_bytes()[:7])
    with pytest.raises(SceneFormatError, match=r"not a multiple of 4.*byte 4"):
        read_scene(bad, probe.id, table)
    print(f"1000 scenes bit-exact, elapsed {elapsed:.2f}s")
