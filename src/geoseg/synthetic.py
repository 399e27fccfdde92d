"""Synthetic outdoor scenes with a controllable clean-to-adverse shift.

Six archetypes at desk scale: ground and terrain planes, vegetation
blobs floating above trunk anchors, trunk cylinders, vehicle boxes, and
building walls. Per-class intensity bands are disjoint for the default
table, so at severity zero classes are separable from intensity alone;
the adverse shift (accumulation plus fog) makes the bands overlap and
forces geometry to carry the signal. Coordinates are quantized to
float32 at generation time, and again after the shift, so a write/read
round trip through the binary format is bit-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from geoseg.augment import (
    AugmentationConfig,
    fog_attenuation,
    matter_accumulation,
    scaled_for_severity,
)
from geoseg.scenes import ClassTable, LabelSet, PointCloud, Scene
from geoseg.streams import substream

CLASS_NAMES = ("ground", "terrain", "vegetation", "trunk", "vehicle", "building")
ACCUMULABLE_IDS = frozenset({0, 1, 2, 3})

# Index into the disjoint intensity ladder; width per band.
_BAND_WIDTH = 0.08
_BAND_LO = 0.05
_BAND_SPAN = 0.74

# Scenes beyond this index are reserved for held-out test generation.
TEST_INDEX_BASE = 1_000_000


def default_class_table() -> ClassTable:
    return ClassTable(CLASS_NAMES, ACCUMULABLE_IDS)


@dataclass(frozen=True)
class SynthConfig:
    classes: ClassVar[ClassTable] = default_class_table()
    points_per_scene: int = 600
    scene_extent: float = 50.0
    shift_severity: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.points_per_scene < self.classes.num_classes:
            raise ValueError(
                f"points_per_scene must be >= {self.classes.num_classes} so every class appears"
            )
        if not (math.isfinite(self.scene_extent) and self.scene_extent > 0):
            raise ValueError(f"scene_extent must be finite and > 0, got {self.scene_extent}")
        if not (math.isfinite(self.shift_severity) and self.shift_severity >= 0):
            raise ValueError(f"shift_severity must be finite and >= 0, got {self.shift_severity}")


def intensity_band(class_id: int, num_classes: int) -> tuple[float, float]:
    lo = _BAND_LO + _BAND_SPAN * class_id / max(num_classes - 1, 1)
    return lo, lo + _BAND_WIDTH


def _class_counts(total: int, num_classes: int) -> np.ndarray:
    counts = np.full(num_classes, total // num_classes)
    counts[: total % num_classes] += 1
    return counts


def generate_scene(cfg: SynthConfig, index: int) -> Scene:
    """Deterministic scene for (cfg.seed, index); points are class-ordered.

    Fixed draw sequence per scene: trunk anchors, vehicle anchors, wall
    specs, then per-class point batches in class id order.
    """
    rng = substream(cfg.seed, "scene", index)
    c = cfg.classes.num_classes
    e = cfg.scene_extent
    counts = _class_counts(cfg.points_per_scene, c)

    span = 0.8 * e
    trunk_anchors = rng.uniform(-span, span, size=(max(2, cfg.points_per_scene // 180), 2))
    vehicle_anchors = rng.uniform(-span, span, size=(max(2, cfg.points_per_scene // 300), 2))
    wall_axis = rng.integers(0, 2, size=max(2, cfg.points_per_scene // 300))
    wall_origin = rng.uniform(-span, span, size=(wall_axis.size, 2))

    chunks: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    for class_id in range(c):
        n = int(counts[class_id])
        kind = class_id % 6
        if kind == 0:  # ground plane
            xy = rng.uniform(-e, e, size=(n, 2))
            z = rng.normal(0.0, 0.05, size=n)
        elif kind == 1:  # raised rough terrain, embankment height
            xy = rng.uniform(-e, e, size=(n, 2))
            z = 2.5 + rng.normal(0.0, 0.4, size=n)
        elif kind == 2:  # canopy blobs above trunk anchors
            which = rng.integers(0, trunk_anchors.shape[0], size=n)
            center_z = rng.uniform(8.0, 16.0, size=n)
            off = rng.normal(0.0, 1.2, size=(n, 3))
            xy = trunk_anchors[which] + off[:, :2]
            z = center_z + off[:, 2]
        elif kind == 3:  # trunk cylinders
            which = rng.integers(0, trunk_anchors.shape[0], size=n)
            angle = rng.uniform(0.0, 2.0 * np.pi, size=n)
            radius = 0.22 + rng.normal(0.0, 0.02, size=n)
            xy = trunk_anchors[which] + radius[:, None] * np.stack(
                [np.cos(angle), np.sin(angle)], axis=1
            )
            z = rng.uniform(0.0, 6.0, size=n)
        elif kind == 4:  # vehicle boxes
            which = rng.integers(0, vehicle_anchors.shape[0], size=n)
            off = np.stack(
                [rng.uniform(-2.0, 2.0, size=n), rng.uniform(-1.0, 1.0, size=n)], axis=1
            )
            xy = vehicle_anchors[which] + off
            z = rng.uniform(0.05, 2.2, size=n)
        else:  # building walls
            which = rng.integers(0, wall_axis.size, size=n)
            along = rng.uniform(0.0, 24.0, size=n)
            thick = rng.normal(0.0, 0.05, size=n)
            xy = wall_origin[which].copy()
            ax = wall_axis[which]
            xy[ax == 0, 0] += along[ax == 0]
            xy[ax == 0, 1] += thick[ax == 0]
            xy[ax == 1, 1] += along[ax == 1]
            xy[ax == 1, 0] += thick[ax == 1]
            z = rng.uniform(0.0, 28.0, size=n)
        lo, hi = intensity_band(class_id, c)
        intensity = rng.uniform(lo, hi, size=n)
        pts = np.column_stack([xy[:, 0], xy[:, 1], z, intensity])
        pts[:, :3] = np.clip(pts[:, :3], -e, e)
        chunks.append(pts)
        labels.append(np.full(n, class_id, dtype=np.uint16))

    points = np.concatenate(chunks, axis=0)
    # float32 quantization keeps disk round trips bit-exact.
    points = points.astype(np.float32).astype(np.float64)
    return Scene(
        PointCloud(points),
        LabelSet(np.concatenate(labels)),
        f"synth-{cfg.seed}-{index}",
    )


def shift_scene(scene: Scene, cfg: SynthConfig, index: int) -> Scene:
    """Apply the clean-to-adverse shift, the default AugmentationConfig scaled
    by cfg.shift_severity; evaluation keeps pre-masking labels."""
    if cfg.shift_severity == 0.0:
        return scene
    eff = scaled_for_severity(AugmentationConfig(), cfg.shift_severity)
    rng = substream(cfg.seed, "shift", index)
    shifted, _ = matter_accumulation(scene, cfg.classes, eff, rng)
    shifted, _ = fog_attenuation(shifted, eff, rng)
    points = shifted.cloud.points.astype(np.float32).astype(np.float64)
    return Scene(PointCloud(points), scene.labels, scene.id)


def make_split(cfg: SynthConfig, n_train: int, n_test: int) -> tuple[list[Scene], list[Scene]]:
    """Clean train scenes plus test scenes shifted with the default
    AugmentationConfig, from disjoint index ranges."""
    train = [generate_scene(cfg, i) for i in range(n_train)]
    test = []
    for j in range(n_test):
        scene = generate_scene(cfg, TEST_INDEX_BASE + j)
        test.append(shift_scene(scene, cfg, j))
    return train, test
