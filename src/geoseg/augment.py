"""Physics-inspired adverse geometry simulation plus standard augmentation.

Two weather operators transform a scene:

  * matter_accumulation: deposits (snow, mud, leaves) settle on a fixed
    share of the points of accumulable classes, lifting them along z by
    h ~ U(h1, h2) and scaling their intensity by gamma ~ U(gamma1,
    gamma2) with a clamp to [0, 1]. Geometry of unselected points is
    untouched, labels never change.
  * fog_attenuation: one extinction coefficient alpha ~ U(0,
    fog_alpha_max) per scene attenuates intensity along the two-way
    optical path, I' = I * exp(-2 * alpha * r) with r the Euclidean
    range. Points whose attenuated return falls strictly below
    fog_threshold become unrecognizable and have their label masked to
    IGNORE_ID; coordinates are never dropped.

compound_augment draws independent Bernoulli gates for the two operators
and applies them in the fixed order accumulation -> fog, consuming draws
from a single per-scene substream so the composition is bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from geoseg.scenes import IGNORE_ID, ClassTable, LabelSet, PointCloud, Scene


@dataclass(frozen=True)
class AugmentationConfig:
    """Knobs for the two weather operators and their Bernoulli gates."""

    beta1: float = 0.3
    beta2: float = 0.5
    rho: float = 0.3
    h1: float = 0.05
    h2: float = 0.3
    gamma1: float = 0.3
    gamma2: float = 1.0
    fog_alpha_max: float = 0.1
    fog_threshold: float = 0.05
    accumulate_all: bool = False

    def __post_init__(self):
        for name in ("beta1", "beta2", "rho"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        for name in ("h1", "h2", "gamma1", "gamma2", "fog_alpha_max", "fog_threshold"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if self.h1 > self.h2:
            raise ValueError(f"need h1 <= h2, got ({self.h1}, {self.h2})")
        if self.gamma1 > self.gamma2:
            raise ValueError(f"need gamma1 <= gamma2, got ({self.gamma1}, {self.gamma2})")


@dataclass
class AugmentationReport:
    """What a (compound) augmentation actually did to one scene."""

    psi1_applied: bool = False
    psi2_applied: bool = False
    points_accumulated: int = 0
    labels_masked: int = 0
    height_samples: np.ndarray = field(default_factory=lambda: np.empty(0))
    gamma_samples: np.ndarray = field(default_factory=lambda: np.empty(0))
    fog_alpha: float | None = None

    def lines(self) -> list[str]:
        out = [
            f"psi1_applied = {str(self.psi1_applied).lower()}",
            f"psi2_applied = {str(self.psi2_applied).lower()}",
            f"points_accumulated = {self.points_accumulated}",
            f"labels_masked = {self.labels_masked}",
        ]
        if self.height_samples.size:
            out.append(f"height_mean = {self.height_samples.mean():.6f}")
            out.append(f"gamma_mean = {self.gamma_samples.mean():.6f}")
        if self.fog_alpha is not None:
            out.append(f"fog_alpha = {self.fog_alpha:.6f}")
        return out


def matter_accumulation(
    scene: Scene,
    table: ClassTable,
    cfg: AugmentationConfig,
    rng: np.random.Generator,
) -> tuple[Scene, AugmentationReport]:
    """Settle deposits on exactly floor(rho * |eligible|) points.

    Eligible points carry an accumulable class label (every point when
    cfg.accumulate_all). Draw order: selection without replacement, then
    per-point heights, then per-point intensity factors.
    """
    labels = scene.labels.labels
    if cfg.accumulate_all:
        eligible = np.arange(labels.shape[0])
    else:
        acc = np.fromiter(sorted(table.accumulable), dtype=np.uint16, count=len(table.accumulable))
        eligible = np.nonzero(np.isin(labels, acc))[0]
    k = int(math.floor(cfg.rho * eligible.size))
    report = AugmentationReport(psi1_applied=True, points_accumulated=k)
    if k == 0:
        return scene, report
    selected = rng.choice(eligible, size=k, replace=False)
    heights = rng.uniform(cfg.h1, cfg.h2, size=k)
    gammas = rng.uniform(cfg.gamma1, cfg.gamma2, size=k)
    points = scene.cloud.points.copy()
    points[selected, 2] += heights
    points[selected, 3] = np.clip(points[selected, 3] * gammas, 0.0, 1.0)
    report.height_samples = heights
    report.gamma_samples = gammas
    out = Scene(PointCloud(points), scene.labels, scene.id)
    return out, report


def fog_attenuation(
    scene: Scene,
    cfg: AugmentationConfig,
    rng: np.random.Generator,
) -> tuple[Scene, AugmentationReport]:
    """Attenuate intensity under a per-scene fog density and mask faint points."""
    alpha = float(rng.uniform(0.0, cfg.fog_alpha_max))
    points = scene.cloud.points.copy()
    ranges = np.linalg.norm(points[:, :3], axis=1)
    points[:, 3] = points[:, 3] * np.exp(-2.0 * alpha * ranges)
    faint = points[:, 3] < cfg.fog_threshold
    labels = np.where(faint, np.uint16(IGNORE_ID), scene.labels.labels)
    report = AugmentationReport(
        psi2_applied=True, labels_masked=int(faint.sum()), fog_alpha=alpha
    )
    out = Scene(PointCloud(points), LabelSet(labels), scene.id)
    return out, report


def compound_augment(
    scene: Scene,
    table: ClassTable,
    cfg: AugmentationConfig,
    rng: np.random.Generator,
) -> tuple[Scene, AugmentationReport]:
    """Bernoulli-gated composition: accumulation first, then fog.

    Gates are drawn first (eta1 then eta2) from the same stream the
    operators consume afterwards; with both gates off the input scene is
    returned unchanged.
    """
    eta1 = bool(rng.random() < cfg.beta1)
    eta2 = bool(rng.random() < cfg.beta2)
    out, report = scene, AugmentationReport()
    if eta1:
        out, report = matter_accumulation(out, table, cfg, rng)
    if eta2:
        out, fog = fog_attenuation(out, cfg, rng)
        report = replace(
            report,
            psi2_applied=fog.psi2_applied,
            labels_masked=fog.labels_masked,
            fog_alpha=fog.fog_alpha,
        )
    return out, report


# Gate probability of each conventional augmentation, and its magnitudes.
STD_GATE_P = 0.5
STD_SCALE_RANGE = (0.95, 1.05)
STD_JITTER_SIGMA = 0.01
STD_DROPOUT_RATE = 0.2


def rotate_z(points: np.ndarray, theta: float) -> np.ndarray:
    """Rotate an (N, 4) point array about the vertical axis; returns a copy."""
    out = np.array(points, dtype=np.float64)
    c, s = math.cos(theta), math.sin(theta)
    x = out[:, 0].copy()
    y = out[:, 1].copy()
    out[:, 0] = c * x - s * y
    out[:, 1] = s * x + c * y
    return out


def standard_augment(scene: Scene, rng: np.random.Generator) -> Scene:
    """Conventional train-time augmentation.

    In order, each behind its own gate that opens with probability
    STD_GATE_P: full-range rotation about z, global scaling within
    STD_SCALE_RANGE, x flip, y flip, Gaussian coordinate jitter, and
    per-point dropout that removes points together with their labels.
    Intensity is never touched.
    """
    points = scene.cloud.points.copy()
    labels = scene.labels.labels
    if rng.random() < STD_GATE_P:
        points = rotate_z(points, rng.uniform(0.0, 2.0 * math.pi))
    if rng.random() < STD_GATE_P:
        points[:, :3] *= rng.uniform(*STD_SCALE_RANGE)
    if rng.random() < STD_GATE_P:
        points[:, 0] = -points[:, 0]
    if rng.random() < STD_GATE_P:
        points[:, 1] = -points[:, 1]
    if rng.random() < STD_GATE_P:
        points[:, :3] += rng.normal(0.0, STD_JITTER_SIGMA, size=(points.shape[0], 3))
    if rng.random() < STD_GATE_P:
        keep = rng.random(points.shape[0]) >= STD_DROPOUT_RATE
        points = points[keep]
        labels = labels[keep]
    return Scene(PointCloud(points), LabelSet(labels), scene.id)


def scaled_for_severity(cfg: AugmentationConfig, severity: float) -> AugmentationConfig:
    """Shift strength scaling: coverage and fog density grow with severity."""
    if severity < 0:
        raise ValueError(f"severity must be >= 0, got {severity}")
    return replace(
        cfg,
        rho=min(cfg.rho * severity, 1.0),
        fog_alpha_max=cfg.fog_alpha_max * severity,
    )
