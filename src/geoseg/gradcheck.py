"""Finite-difference verification of every analytic gradient coordinate.

The loss checked is the training loss itself, training.composite_loss
(segmentation + property + consistency, and the segmentation loss on the
adverse copy when seg_on_augmented is set), evaluated as a pure function
of the parameter values; central differences with a small step probe
each coordinate of each model parameter and of the relation matrix, and
the result is compared against one reverse-mode pass. The geometry
blocks are constants: their bytes must be identical before and after
backward.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from geoseg import training
from geoseg.geometry_embedding import EmbeddingMatrix, RelationMatrix
from geoseg.network import PointNetLite
from geoseg.scenes import IGNORE_ID, LabelSet
from geoseg.streams import substream


@dataclass
class GradCheckCase:
    model: PointNetLite
    relation: RelationMatrix
    embedding: EmbeddingMatrix
    points: np.ndarray
    labels: LabelSet
    points_aug: np.ndarray
    labels_aug: LabelSet
    cfg: training.TrainConfig = training.TrainConfig()


@dataclass
class GradCheckReport:
    cases: int = 0
    coords_checked: int = 0
    max_abs_diff: float = 0.0
    failures: list[str] = field(default_factory=list)
    embedding_untouched: bool = True

    @property
    def passed(self) -> bool:
        return not self.failures and self.embedding_untouched

    def lines(self) -> list[str]:
        return [
            f"cases = {self.cases}",
            f"coords_checked = {self.coords_checked}",
            f"max_abs_diff = {self.max_abs_diff:.3e}",
            f"failures = {len(self.failures)}",
            f"embedding_untouched = {str(self.embedding_untouched).lower()}",
            f"passed = {str(self.passed).lower()}",
        ]


def _random_case(rng: np.random.Generator, max_points: int, feature_dim: int,
                 num_classes: int, num_properties: int) -> GradCheckCase:
    n = int(rng.integers(4, max_points + 1))
    model = PointNetLite.create(num_classes, widths=(feature_dim, feature_dim), rng=rng)

    def cloud_and_labels():
        pts = np.column_stack(
            [rng.uniform(-45.0, 45.0, size=(n, 3)), rng.uniform(0.0, 1.0, size=n)]
        )
        raw = rng.integers(0, num_classes, size=n).astype(np.uint16)
        raw[rng.random(n) < 0.15] = IGNORE_ID
        return pts, LabelSet(raw)

    points, labels = cloud_and_labels()
    points_aug, labels_aug = cloud_and_labels()
    embedding = EmbeddingMatrix.initial(num_classes, feature_dim, num_properties, rng=rng)
    relation = RelationMatrix.initial(num_classes, num_properties, rng=rng)
    return GradCheckCase(model, relation, embedding, points, labels, points_aug, labels_aug)


def composite_loss(case: GradCheckCase) -> training.CompositeLoss:
    """The training loss of the case on a fresh tape."""
    return training.composite_loss(
        case.model, case.relation, case.embedding, (case.points, case.labels),
        (case.points_aug, case.labels_aug), case.cfg,
    )


def composite_loss_value(case: GradCheckCase) -> float:
    total = composite_loss(case).total
    return float(total.value) if total is not None else 0.0


def check_case(
    case: GradCheckCase,
    step: float = 1e-5,
    rel_tol: float = 1e-4,
    abs_floor: float = 1e-8,
) -> tuple[int, float, list[str], bool]:
    """FD-vs-analytic comparison for one case.

    Returns (coords checked, max abs difference, failure descriptions,
    embedding-bytes-identical flag).
    """
    before = hashlib.sha256(case.embedding.blocks.tobytes()).hexdigest()
    loss = composite_loss(case)
    if loss.total is None:
        return 0, 0.0, [], True
    analytic = loss.backward()
    untouched = hashlib.sha256(case.embedding.blocks.tobytes()).hexdigest() == before

    named = [(f"param{i}", arr) for i, arr in enumerate(case.model.parameters())]
    named.append(("relation", case.relation.values))

    checked = 0
    max_diff = 0.0
    failures: list[str] = []
    for (name, arr), grad in zip(named, analytic):
        flat = arr.ravel()
        gflat = grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = composite_loss_value(case)
            flat[i] = orig - step
            lo = composite_loss_value(case)
            flat[i] = orig
            fd = (hi - lo) / (2.0 * step)
            diff = abs(fd - gflat[i])
            limit = max(abs_floor, rel_tol * max(abs(fd), abs(gflat[i])))
            max_diff = max(max_diff, diff)
            checked += 1
            if diff > limit:
                failures.append(
                    f"{name}[{i}]: analytic {gflat[i]:.10e} vs fd {fd:.10e} (diff {diff:.3e})"
                )
    return checked, max_diff, failures, untouched


def run_gradient_check(
    seed: int = 0,
    cases: int = 20,
    max_points: int = 32,
    feature_dim: int = 8,
    num_classes: int = 4,
    num_properties: int = 4,
    step: float = 1e-5,
    rel_tol: float = 1e-4,
    abs_floor: float = 1e-8,
) -> GradCheckReport:
    """Run the FD battery over freshly drawn random configurations."""
    report = GradCheckReport()
    for case_idx in range(cases):
        rng = substream(seed, "gradcheck", case_idx)
        case = _random_case(rng, max_points, feature_dim, num_classes, num_properties)
        checked, max_diff, failures, untouched = check_case(case, step, rel_tol, abs_floor)
        report.cases += 1
        report.coords_checked += checked
        report.max_abs_diff = max(report.max_abs_diff, max_diff)
        report.failures.extend(f"case {case_idx}: {f}" for f in failures)
        report.embedding_untouched = report.embedding_untouched and untouched
    return report
