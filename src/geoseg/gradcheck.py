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

# Shape of each random case: most points, model width, classes and
# geometry properties.
MAX_POINTS = 32
FEATURE_DIM = 8
NUM_CLASSES = 4
NUM_PROPERTIES = 4
# Central-difference step, and the pass limit per coordinate:
# max(ABS_FLOOR, REL_TOL * max(|fd|, |analytic|)).
STEP = 1e-5
REL_TOL = 1e-4
ABS_FLOOR = 1e-8


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
        """No failure, blocks untouched, and at least one coordinate checked."""
        return self.coords_checked > 0 and not self.failures and self.embedding_untouched

    def lines(self) -> list[str]:
        return [
            f"cases = {self.cases}",
            f"coords_checked = {self.coords_checked}",
            f"max_abs_diff = {self.max_abs_diff:.3e}",
            f"failures = {len(self.failures)}",
            f"embedding_untouched = {str(self.embedding_untouched).lower()}",
            f"passed = {str(self.passed).lower()}",
        ]


def adverse_rows(
    points: np.ndarray, labels: LabelSet, kind: np.ndarray, redraw
) -> tuple[np.ndarray, LabelSet]:
    """An adverse copy made row by row from the clean batch, as training
    makes it: row i is kept where kind[i] is 0, replaced by a row of
    redraw(count) where it is 1, and has its label masked where it is 2."""
    points_aug = points.copy()
    points_aug[kind == 1] = redraw(int(np.sum(kind == 1)))
    raw = labels.labels.copy()
    raw[kind == 2] = IGNORE_ID
    return points_aug, LabelSet(raw)


def _random_case(rng: np.random.Generator) -> GradCheckCase:
    n = int(rng.integers(4, MAX_POINTS + 1))
    model = PointNetLite.create(NUM_CLASSES, widths=(FEATURE_DIM, FEATURE_DIM), rng=rng)

    def cloud(count: int) -> np.ndarray:
        return np.column_stack(
            [rng.uniform(-45.0, 45.0, size=(count, 3)), rng.uniform(0.0, 1.0, size=count)]
        )

    points = cloud(n)
    raw = rng.integers(0, NUM_CLASSES, size=n).astype(np.uint16)
    raw[rng.random(n) < 0.15] = IGNORE_ID
    labels = LabelSet(raw)
    points_aug, labels_aug = adverse_rows(points, labels, rng.integers(0, 3, size=n), cloud)
    embedding = EmbeddingMatrix.initial(NUM_CLASSES, FEATURE_DIM, NUM_PROPERTIES, rng=rng)
    relation = RelationMatrix.initial(NUM_CLASSES, NUM_PROPERTIES, rng=rng)
    return GradCheckCase(model, relation, embedding, points, labels, points_aug, labels_aug)


def composite_loss(case: GradCheckCase) -> training.CompositeLoss:
    """The training loss of the case on a fresh tape."""
    return training.composite_loss(
        case.model, case.relation, case.embedding, (case.points, case.labels),
        (case.points_aug, case.labels_aug), case.cfg,
    )


def composite_loss_value(case: GradCheckCase) -> float:
    losses = composite_loss(case).losses
    return 0.0 if losses.skipped else losses.total


def check_case(case: GradCheckCase) -> tuple[int, float, list[str], bool]:
    """FD-vs-analytic comparison for one case.

    Returns (coords checked, max abs difference, failure descriptions,
    embedding-bytes-identical flag).
    """
    before = hashlib.sha256(case.embedding.blocks.tobytes()).hexdigest()
    loss = composite_loss(case)
    if loss.losses.skipped:
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
            flat[i] = orig + STEP
            hi = composite_loss_value(case)
            flat[i] = orig - STEP
            lo = composite_loss_value(case)
            flat[i] = orig
            fd = (hi - lo) / (2.0 * STEP)
            diff = abs(fd - gflat[i])
            limit = max(ABS_FLOOR, REL_TOL * max(abs(fd), abs(gflat[i])))
            max_diff = max(max_diff, diff)
            checked += 1
            if diff > limit:
                failures.append(
                    f"{name}[{i}]: analytic {gflat[i]:.10e} vs fd {fd:.10e} (diff {diff:.3e})"
                )
    return checked, max_diff, failures, untouched


def run_gradient_check(seed: int, cases: int) -> GradCheckReport:
    """Run the FD battery over freshly drawn random configurations."""
    if cases < 1:
        raise ValueError(f"cases must be >= 1, got {cases}")
    report = GradCheckReport()
    for case_idx in range(cases):
        rng = substream(seed, "gradcheck", case_idx)
        case = _random_case(rng)
        checked, max_diff, failures, untouched = check_case(case)
        report.cases += 1
        report.coords_checked += checked
        report.max_abs_diff = max(report.max_abs_diff, max_diff)
        report.failures.extend(f"case {case_idx}: {f}" for f in failures)
        report.embedding_untouched = report.embedding_untouched and untouched
    return report
