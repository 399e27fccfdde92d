import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from geoseg.scenes import read_scene, write_scene
from geoseg.synthetic import (
    ACCUMULABLE_IDS,
    CLASS_NAMES,
    TEST_INDEX_BASE,
    SynthConfig,
    default_class_table,
    generate_scene,
    intensity_band,
    make_split,
    shift_scene,
)


def test_default_table():
    table = default_class_table()
    assert table.names == CLASS_NAMES
    assert table.num_classes == 6
    assert table.accumulable == ACCUMULABLE_IDS


def test_config_validation():
    with pytest.raises(ValueError, match="points_per_scene"):
        SynthConfig(points_per_scene=3)
    for extent in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="scene_extent must be finite and > 0"):
            SynthConfig(scene_extent=extent)
    for severity in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="shift_severity must be finite and >= 0"):
            SynthConfig(shift_severity=severity)


def test_intensity_bands_are_disjoint_and_ordered():
    bands = [intensity_band(c, 6) for c in range(6)]
    assert bands[0] == pytest.approx((0.05, 0.13))
    assert bands[5] == pytest.approx((0.79, 0.87))
    for (lo_a, hi_a), (lo_b, _) in zip(bands, bands[1:]):
        assert hi_a < lo_b
    assert all(0.0 < lo < hi < 1.0 for lo, hi in bands)


def test_generation_is_bit_deterministic():
    cfg = SynthConfig(points_per_scene=120)
    a = generate_scene(cfg, 3)
    b = generate_scene(cfg, 3)
    assert a.cloud.points.tobytes() == b.cloud.points.tobytes()
    assert_array_equal(a.labels.labels, b.labels.labels)
    assert a.id == b.id == "synth-0-3"


def test_distinct_indices_give_distinct_scenes():
    cfg = SynthConfig(points_per_scene=120)
    a = generate_scene(cfg, 0)
    b = generate_scene(cfg, 1)
    assert a.cloud.points.tobytes() != b.cloud.points.tobytes()


def test_every_class_appears_with_equal_quota():
    scene = generate_scene(SynthConfig(points_per_scene=600), 0)
    counts = np.bincount(scene.labels.labels, minlength=6)
    assert_array_equal(counts, np.full(6, 100))


def test_remainder_points_go_to_the_first_classes():
    scene = generate_scene(SynthConfig(points_per_scene=601), 0)
    counts = np.bincount(scene.labels.labels, minlength=6)
    assert_array_equal(counts, [101, 100, 100, 100, 100, 100])


def test_minimum_size_still_covers_every_class():
    scene = generate_scene(SynthConfig(points_per_scene=6), 0)
    assert set(scene.labels.labels.tolist()) == set(range(6))


def test_coordinates_respect_extent_and_intensity_bands():
    cfg = SynthConfig(points_per_scene=600, scene_extent=50.0)
    scene = generate_scene(cfg, 5)
    assert np.all(np.abs(scene.cloud.points[:, :3]) <= 50.0)
    for c in range(6):
        lo, hi = intensity_band(c, 6)
        vals = scene.cloud.points[scene.labels.labels == c, 3]
        # float32 quantization can nudge values by half an ulp.
        assert np.all(vals >= lo - 1e-6)
        assert np.all(vals <= hi + 1e-6)


def test_points_are_float32_exact_and_round_trip(tmp_path):
    cfg = SynthConfig(points_per_scene=150, shift_severity=1.5)
    clean = generate_scene(cfg, 2)
    shifted = shift_scene(clean, cfg, 2)
    assert shifted.cloud.points.tobytes() != clean.cloud.points.tobytes()
    for scene, root in ((clean, tmp_path / "clean"), (shifted, tmp_path / "shifted")):
        assert_array_equal(
            scene.cloud.points, scene.cloud.points.astype(np.float32).astype(np.float64)
        )
        write_scene(root, scene)
        back = read_scene(root, scene.id, cfg.classes)
        assert back.cloud.points.tobytes() == scene.cloud.points.tobytes()
        assert_array_equal(back.labels.labels, scene.labels.labels)


def test_shift_severity_zero_returns_scene_unchanged():
    cfg = SynthConfig(points_per_scene=60, shift_severity=0.0)
    scene = generate_scene(cfg, 0)
    assert shift_scene(scene, cfg, 0) is scene


def test_shift_moves_exactly_the_scaled_quota():
    # Fog changes intensity only, so every z change is an accumulation deposit.
    for severity in (1.0, 1.5, 4.0):
        cfg = SynthConfig(points_per_scene=300, shift_severity=severity)
        scene = generate_scene(cfg, 4)
        shifted = shift_scene(scene, cfg, 4)
        eligible = np.isin(scene.labels.labels, sorted(ACCUMULABLE_IDS)).sum()
        moved = np.nonzero(scene.cloud.points[:, 2] != shifted.cloud.points[:, 2])[0]
        assert moved.size == int(np.floor(min(0.3 * severity, 1.0) * eligible))


def test_shift_touches_only_z_intensity_and_keeps_labels():
    cfg = SynthConfig(points_per_scene=300, shift_severity=1.5)
    scene = generate_scene(cfg, 9)
    shifted = shift_scene(scene, cfg, 9)
    assert_array_equal(shifted.cloud.points[:, 0], scene.cloud.points[:, 0])
    assert_array_equal(shifted.cloud.points[:, 1], scene.cloud.points[:, 1])
    # Evaluation labels are the pre-masking ground truth.
    assert shifted.labels is scene.labels
    assert shifted.id == scene.id


def test_shift_is_deterministic_per_index():
    cfg = SynthConfig(points_per_scene=200, shift_severity=1.5)
    scene = generate_scene(cfg, 1)
    a = shift_scene(scene, cfg, 1)
    b = shift_scene(scene, cfg, 1)
    assert a.cloud.points.tobytes() == b.cloud.points.tobytes()


def test_make_split_uses_disjoint_index_ranges():
    cfg = SynthConfig(points_per_scene=60, shift_severity=1.0)
    train, test = make_split(cfg, 3, 2)
    assert [s.id for s in train] == ["synth-0-0", "synth-0-1", "synth-0-2"]
    assert [s.id for s in test] == [
        f"synth-0-{TEST_INDEX_BASE}",
        f"synth-0-{TEST_INDEX_BASE + 1}",
    ]
    train_blobs = {s.cloud.points.tobytes() for s in train}
    for s in test:
        assert s.cloud.points.tobytes() not in train_blobs
