import hashlib

import numpy as np

from geoseg.gradcheck import (
    GradCheckCase,
    GradCheckReport,
    adverse_rows,
    check_case,
    composite_loss,
    composite_loss_value,
    run_gradient_check,
)
from geoseg.geometry_embedding import EmbeddingMatrix, RelationMatrix
from geoseg.network import PointNetLite
from geoseg.scenes import LabelSet
from geoseg.streams import substream
from geoseg.training import TrainConfig


def small_case(seed=0, **gates) -> GradCheckCase:
    rng = substream(seed, "case")
    n = 6
    model = PointNetLite.create(3, widths=(4, 4), rng=rng)

    def cloud(count):
        return np.column_stack(
            [rng.uniform(-45, 45, size=(count, 3)), rng.uniform(0, 1, size=count)]
        )

    pts = cloud(n)
    labels = LabelSet(rng.integers(0, 3, size=n).astype(np.uint16))
    # Two rows each kept, redrawn and masked, so the adverse terms read
    # clean-pass rows and rows of a pass of their own.
    pts_aug, labels_aug = adverse_rows(pts, labels, np.arange(n) % 3, cloud)
    embedding = EmbeddingMatrix.initial(3, 4, 2, rng=rng)
    relation = RelationMatrix.initial(3, 2, rng=rng)
    return GradCheckCase(
        model, relation, embedding, pts, labels, pts_aug, labels_aug, TrainConfig(**gates)
    )


def test_loss_combinations_all_pass_finite_differences():
    # Segmentation only, plus property loss, plus consistency loss, plus
    # segmentation on the adverse copy.
    for gates in (
        dict(lambda1=0.0, lambda2=0.0),
        dict(lambda1=1.0, lambda2=0.0),
        dict(lambda1=1.0, lambda2=1.0),
        dict(lambda1=1.0, lambda2=1.0, seg_on_augmented=True),
    ):
        checked, max_diff, failures, untouched = check_case(small_case(**gates))
        assert checked > 0
        assert failures == []
        assert untouched


def test_composite_loss_value_is_pure():
    case = small_case()
    first = composite_loss_value(case)
    second = composite_loss_value(case)
    assert first == second


def test_composite_loss_parts_share_one_tape():
    case = small_case()
    loss = composite_loss(case)
    assert loss.total is not None
    *model_grads, relation_grad = loss.backward()
    assert any(np.any(g != 0.0) for g in model_grads)
    assert np.any(relation_grad != 0.0)


def test_blocks_bytes_stable_through_check(rng):
    case = small_case(3)
    digest = hashlib.sha256(case.embedding.blocks.tobytes()).hexdigest()
    check_case(case)
    assert hashlib.sha256(case.embedding.blocks.tobytes()).hexdigest() == digest


def test_battery_reports_and_passes():
    report = run_gradient_check(seed=0, cases=3)
    assert report.passed
    assert report.cases == 3
    assert report.coords_checked > 0
    assert report.max_abs_diff < 1e-4
    lines = report.lines()
    assert "passed = true" in lines[-1]


def test_a_report_that_checked_nothing_does_not_pass():
    assert not GradCheckReport().passed
    assert not GradCheckReport(cases=3).passed
    assert GradCheckReport(cases=1, coords_checked=1).passed


def test_battery_is_deterministic():
    a = run_gradient_check(seed=1, cases=2)
    b = run_gradient_check(seed=1, cases=2)
    assert a.max_abs_diff == b.max_abs_diff
    assert a.coords_checked == b.coords_checked
