import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from geoseg.augment import (
    STD_GATE_P,
    AugmentationConfig,
    compound_augment,
    fog_attenuation,
    matter_accumulation,
    rotate_z,
    scaled_for_severity,
    standard_augment,
)
from geoseg.scenes import IGNORE_ID, ClassTable, LabelSet, PointCloud, Scene
from geoseg.streams import substream

from conftest import make_scene


def changed_rows(a: Scene, b: Scene) -> np.ndarray:
    """Diff oracle: indices whose (x, y, z, intensity) record differs at all."""
    return np.nonzero(np.any(a.cloud.points != b.cloud.points, axis=1))[0]


def test_config_validation():
    with pytest.raises(ValueError):
        AugmentationConfig(beta1=1.2)
    with pytest.raises(ValueError):
        AugmentationConfig(rho=-0.1)
    with pytest.raises(ValueError):
        AugmentationConfig(h1=0.5, h2=0.2)
    with pytest.raises(ValueError):
        AugmentationConfig(gamma1=2.0, gamma2=1.0)
    with pytest.raises(ValueError):
        AugmentationConfig(fog_alpha_max=-1.0)
    with pytest.raises(ValueError):
        AugmentationConfig(fog_threshold=-0.5)


# -------------------------------------------------------- matter accumulation


def test_accumulation_touches_exactly_the_quota(rng, small_table):
    scene = make_scene(rng, n=40, num_classes=4)
    eligible = np.isin(scene.labels.labels, [0, 1]).sum()
    cfg = AugmentationConfig(rho=0.3)
    out, report = matter_accumulation(scene, small_table, cfg, substream(0, "t"))
    changed = changed_rows(scene, out)
    assert changed.size == math.floor(0.3 * eligible) == report.points_accumulated
    # Lifted along z within [h1, h2], never sideways.
    deltas = out.cloud.points[changed] - scene.cloud.points[changed]
    assert np.all(deltas[:, 0] == 0.0)
    assert np.all(deltas[:, 1] == 0.0)
    assert np.all((deltas[:, 2] >= cfg.h1 - 1e-12) & (deltas[:, 2] <= cfg.h2 + 1e-12))
    # Intensity scaled by a factor in [gamma1, gamma2] (no clamp hit here).
    ratio = out.cloud.points[changed, 3] / scene.cloud.points[changed, 3]
    assert np.all((ratio >= cfg.gamma1 - 1e-12) & (ratio <= cfg.gamma2 + 1e-12))
    # Untouched rows are bit-identical, labels never change.
    untouched = np.setdiff1d(np.arange(scene.cloud.n), changed)
    assert_array_equal(out.cloud.points[untouched], scene.cloud.points[untouched])
    assert out.labels is scene.labels


def test_accumulation_ten_eligible_rho_03_moves_three(rng):
    table = ClassTable(("a", "b"), accumulable=frozenset({0}))
    pts = np.column_stack(
        [np.arange(20.0), np.zeros(20), np.zeros(20), np.full(20, 0.5)]
    )
    labels = np.array([0] * 10 + [1] * 10, dtype=np.uint16)
    scene = Scene(PointCloud(pts), LabelSet(labels), "ten")
    out, report = matter_accumulation(
        scene, table, AugmentationConfig(rho=0.3), substream(1, "t")
    )
    changed = changed_rows(scene, out)
    assert changed.size == 3 == report.points_accumulated
    assert np.all(changed < 10)  # only the accumulable class moves


def test_accumulation_rho_zero_is_identity(rng, small_table):
    scene = make_scene(rng)
    out, report = matter_accumulation(
        scene, small_table, AugmentationConfig(rho=0.0), substream(0, "t")
    )
    assert out is scene
    assert report.points_accumulated == 0


def test_accumulation_accumulate_all_ignores_class_gate(rng, small_table):
    scene = make_scene(rng, n=30, num_classes=4)
    cfg = AugmentationConfig(rho=1.0, accumulate_all=True)
    out, _ = matter_accumulation(scene, small_table, cfg, substream(0, "t"))
    assert changed_rows(scene, out).size == 30


def test_accumulation_clamps_intensity(rng, small_table):
    scene = make_scene(rng, n=30, num_classes=4, intensity_low=0.6, intensity_high=0.9)
    cfg = AugmentationConfig(rho=1.0, gamma1=2.0, gamma2=3.0, accumulate_all=True)
    out, _ = matter_accumulation(scene, small_table, cfg, substream(0, "t"))
    assert np.all(out.cloud.points[:, 3] <= 1.0)
    assert np.any(out.cloud.points[:, 3] == 1.0)


# ------------------------------------------------------------ fog attenuation


def test_fog_zero_alpha_changes_nothing(rng):
    scene = make_scene(rng, intensity_low=0.3)
    cfg = AugmentationConfig(fog_alpha_max=0.0, fog_threshold=0.05)
    out, report = fog_attenuation(scene, cfg, substream(0, "t"))
    assert out.cloud.points.tobytes() == scene.cloud.points.tobytes()
    assert report.labels_masked == 0
    assert report.fog_alpha == 0.0


def test_fog_masks_exactly_the_subthreshold_points(rng):
    scene = make_scene(rng, n=200, intensity_low=0.02, intensity_high=0.6)
    cfg = AugmentationConfig(fog_alpha_max=0.02, fog_threshold=0.05)
    out, report = fog_attenuation(scene, cfg, substream(3, "t"))
    # Recompute the attenuation from the reported alpha with the same
    # expression; bit-equality then pins the masking set exactly.
    r = np.linalg.norm(scene.cloud.points[:, :3], axis=1)
    expected_intensity = scene.cloud.points[:, 3] * np.exp(-2.0 * report.fog_alpha * r)
    assert_array_equal(out.cloud.points[:, 3], expected_intensity)
    expected_masked = expected_intensity < cfg.fog_threshold
    assert_array_equal(out.labels.labels == IGNORE_ID, expected_masked)
    assert report.labels_masked == int(expected_masked.sum())
    # Geometry is never touched.
    assert_array_equal(out.cloud.points[:, :3], scene.cloud.points[:, :3])


def test_fog_boundary_point_is_not_masked():
    # A point at the origin attenuates by exp(0) = 1 exactly, so an
    # intensity equal to the threshold stays exactly on the boundary.
    pts = np.array([[0.0, 0.0, 0.0, 0.05]])
    scene = Scene(PointCloud(pts), LabelSet(np.array([0], dtype=np.uint16)), "b")
    cfg = AugmentationConfig(fog_alpha_max=0.5, fog_threshold=0.05)
    out, report = fog_attenuation(scene, cfg, substream(0, "t"))
    assert out.labels.labels[0] == 0
    assert report.labels_masked == 0


def test_fog_threshold_above_peak_masks_everything(rng):
    scene = make_scene(rng, intensity_high=0.8)
    cfg = AugmentationConfig(fog_alpha_max=0.1, fog_threshold=2.0)
    out, report = fog_attenuation(scene, cfg, substream(0, "t"))
    assert np.all(out.labels.labels == IGNORE_ID)
    assert report.labels_masked == scene.cloud.n
    assert_array_equal(out.cloud.points[:, :3], scene.cloud.points[:, :3])


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_fog_is_intensity_non_increasing(seed):
    rng = np.random.default_rng(seed)
    scene = make_scene(rng, n=30)
    out, _ = fog_attenuation(scene, AugmentationConfig(), np.random.default_rng(seed))
    assert np.all(out.cloud.points[:, 3] <= scene.cloud.points[:, 3] + 1e-15)


# ------------------------------------------------------------------- compound


def test_compound_both_gates_off_returns_input_object(rng, small_table):
    scene = make_scene(rng)
    cfg = AugmentationConfig(beta1=0.0, beta2=0.0)
    out, report = compound_augment(scene, small_table, cfg, substream(0, "t"))
    assert out is scene
    assert not report.psi1_applied and not report.psi2_applied


def test_compound_both_on_equals_sequential_composition(rng, small_table):
    scene = make_scene(rng, n=60, num_classes=4)
    cfg = AugmentationConfig(beta1=1.0, beta2=1.0)
    out, report = compound_augment(scene, small_table, cfg, substream(9, "pags", 0))
    # Oracle: consume the two gate draws, then apply the operators in
    # order from the same stream.
    oracle_rng = substream(9, "pags", 0)
    oracle_rng.random()
    oracle_rng.random()
    mid, _ = matter_accumulation(scene, small_table, cfg, oracle_rng)
    expected, _ = fog_attenuation(mid, cfg, oracle_rng)
    assert out.cloud.points.tobytes() == expected.cloud.points.tobytes()
    assert_array_equal(out.labels.labels, expected.labels.labels)
    assert report.psi1_applied and report.psi2_applied


def test_compound_gate_probabilities_are_respected(small_table, rng):
    scene = make_scene(rng, n=20)
    stream = substream(5, "gates")
    cfg = AugmentationConfig(beta1=0.3, beta2=0.5, rho=0.0, fog_alpha_max=0.0)
    applied1 = applied2 = 0
    trials = 400
    for _ in range(trials):
        _, report = compound_augment(scene, small_table, cfg, stream)
        applied1 += report.psi1_applied
        applied2 += report.psi2_applied
    # 5 sigma around the Bernoulli means.
    assert abs(applied1 / trials - 0.3) < 5 * math.sqrt(0.3 * 0.7 / trials)
    assert abs(applied2 / trials - 0.5) < 5 * math.sqrt(0.5 * 0.5 / trials)


def test_compound_is_reproducible(rng, small_table):
    scene = make_scene(rng, n=50)
    cfg = AugmentationConfig()
    a, _ = compound_augment(scene, small_table, cfg, substream(2, "pags", 7))
    b, _ = compound_augment(scene, small_table, cfg, substream(2, "pags", 7))
    assert a.cloud.points.tobytes() == b.cloud.points.tobytes()
    assert_array_equal(a.labels.labels, b.labels.labels)


# ----------------------------------------------------- standard augmentation


def test_rotation_inverse_recovers_coordinates(rng):
    pts = rng.uniform(-30, 30, size=(25, 4))
    theta = 1.1
    back = rotate_z(rotate_z(pts, theta), -theta)
    assert_allclose(back[:, :3], pts[:, :3], atol=1e-6)
    assert_array_equal(back[:, 3], pts[:, 3])


class GateRecorder:
    """Generator stand-in that records which of standard_augment's six gates
    (the scalar `random()` draws) opened, in order."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self.gates: list[bool] = []

    def random(self, size=None):
        if size is not None:
            return self._rng.random(size)
        value = self._rng.random()
        self.gates.append(bool(value < STD_GATE_P))
        return value

    def __getattr__(self, name):
        return getattr(self._rng, name)


def key_with_gates(scene: Scene, name: str, *gates: bool) -> int:
    """The first key whose substream(key, name) makes standard_augment open
    exactly the given gates (rotate, scale, flip x, flip y, jitter, dropout)."""
    for key in range(4096):
        recorder = GateRecorder(substream(key, name))
        standard_augment(scene, recorder)
        if tuple(recorder.gates) == gates:
            return key
    raise AssertionError(f"no key in range opens gates {gates}")


ALL_OFF = (False,) * 6
DROPOUT_ONLY = (False,) * 5 + (True,)


def test_standard_augment_all_gates_off_is_identity(rng):
    scene = make_scene(rng)
    out = standard_augment(scene, substream(key_with_gates(scene, "t", *ALL_OFF), "t"))
    assert out.cloud.points.tobytes() == scene.cloud.points.tobytes()
    assert_array_equal(out.labels.labels, scene.labels.labels)


def test_standard_augment_never_touches_intensity(rng):
    scene = make_scene(rng, n=1000)
    # Every geometric gate open, dropout closed.
    key = key_with_gates(scene, "t", *(True,) * 5, False)
    out = standard_augment(scene, substream(key, "t"))
    assert np.any(out.cloud.points[:, :3] != scene.cloud.points[:, :3])
    assert_array_equal(out.cloud.points[:, 3], scene.cloud.points[:, 3])


def test_dropout_survivor_count_within_binomial_bound(rng):
    scene = make_scene(rng, n=10000)
    key = key_with_gates(scene, "drop", *DROPOUT_ONLY)
    out = standard_augment(scene, substream(key, "drop"))
    assert 7700 <= out.cloud.n <= 8300
    assert out.labels.n == out.cloud.n
    # Same stream, same survivors.
    again = standard_augment(scene, substream(key, "drop"))
    assert out.cloud.points.tobytes() == again.cloud.points.tobytes()


def test_dropout_removes_labels_with_points(rng):
    scene = make_scene(rng, n=400, num_classes=4)
    key = key_with_gates(scene, "drop", *DROPOUT_ONLY)
    out = standard_augment(scene, substream(key, "drop"))
    assert out.cloud.n < scene.cloud.n
    # Survivors keep their own labels: match rows back by intensity,
    # which is untouched and unique with probability 1.
    order = {v: i for i, v in enumerate(scene.cloud.points[:, 3])}
    for row, intensity in enumerate(out.cloud.points[:, 3]):
        src = order[intensity]
        assert out.labels.labels[row] == scene.labels.labels[src]


# ------------------------------------------------------------------ severity


def test_scaled_for_severity():
    cfg = AugmentationConfig(rho=0.3, fog_alpha_max=0.1)
    eff = scaled_for_severity(cfg, 1.5)
    assert eff.rho == pytest.approx(0.45)
    assert eff.fog_alpha_max == pytest.approx(0.15)
    assert scaled_for_severity(cfg, 1.0) == cfg
    assert scaled_for_severity(cfg, 10.0).rho == 1.0
    with pytest.raises(ValueError):
        scaled_for_severity(cfg, -0.5)
