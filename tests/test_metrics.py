import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from geoseg.metrics import MetricsReport, confusion_matrix, iou_from_confusion
from geoseg.scenes import IGNORE_ID


def confusion_oracle(gt, preds, c, ignore):
    out = np.zeros((c, c), dtype=np.int64)
    for g, p in zip(gt, preds):
        if g != ignore:
            out[g, p] += 1
    return out


def iou_oracle(gt, preds, c, ignore):
    """Set-arithmetic IoU per class over the valid points."""
    valid = [(g, p) for g, p in zip(gt, preds) if g != ignore]
    ious = []
    for cls in range(c):
        gt_set = {i for i, (g, _) in enumerate(valid) if g == cls}
        pred_set = {i for i, (_, p) in enumerate(valid) if p == cls}
        union = gt_set | pred_set
        ious.append(len(gt_set & pred_set) / len(union) if union else math.nan)
    return ious


def test_perfect_predictions_give_unit_iou():
    gt = np.array([0, 1, 2, 1, 0], dtype=np.uint16)
    conf = confusion_matrix(gt, gt, 4)
    iou, present, miou = iou_from_confusion(conf)
    assert_array_equal(present, [True, True, True, False])
    assert_allclose(iou[:3], np.ones(3))
    assert math.isnan(iou[3])
    assert miou == 1.0


def test_disjoint_predictions_give_zero_iou():
    gt = np.array([0, 0, 0], dtype=np.uint16)
    preds = np.array([1, 1, 1])
    iou, present, miou = iou_from_confusion(confusion_matrix(gt, preds, 2))
    assert iou[0] == 0.0
    assert present.tolist() == [True, False]
    assert miou == 0.0


def test_ignored_points_contribute_nothing():
    gt = np.array([0, IGNORE_ID, 1], dtype=np.uint16)
    preds = np.array([0, 1, 1])
    conf = confusion_matrix(gt, preds, 2)
    assert conf.sum() == 2
    assert_array_equal(conf, [[1, 0], [0, 1]])


def test_validation():
    with pytest.raises(ValueError, match="shape"):
        confusion_matrix(np.zeros(3, dtype=np.uint16), np.zeros(2), 2)
    with pytest.raises(ValueError, match="outside"):
        confusion_matrix(np.zeros(2, dtype=np.uint16), np.array([0, 5]), 2)


def test_empty_confusion_has_nan_miou():
    iou, present, miou = iou_from_confusion(np.zeros((3, 3), dtype=np.int64))
    assert not present.any()
    assert math.isnan(miou)
    assert np.all(np.isnan(iou))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_random_case_matches_set_arithmetic_oracle(seed):
    rng = np.random.default_rng(seed)
    c = int(rng.integers(2, 6))
    gt = rng.integers(0, c, size=50).astype(np.uint16)
    gt[rng.random(50) < 0.1] = IGNORE_ID
    preds = rng.integers(0, c, size=50)
    conf = confusion_matrix(gt, preds, c)
    assert_array_equal(conf, confusion_oracle(gt, preds, c, IGNORE_ID))
    iou, present, miou = iou_from_confusion(conf)
    expected = iou_oracle(gt, preds, c, IGNORE_ID)
    for got, want in zip(iou, expected):
        if math.isnan(want):
            # Absent from GT; may still be defined if predicted.
            continue
        assert got == pytest.approx(want, abs=1e-12)
    present_vals = [v for v, p in zip(iou, present) if p]
    if present_vals:
        assert miou == pytest.approx(float(np.mean(present_vals)), abs=1e-12)


def test_report_lines_and_json():
    gt = np.array([0, 1, 1], dtype=np.uint16)
    preds = np.array([0, 1, 0])
    report = MetricsReport.from_confusion(confusion_matrix(gt, preds, 3))
    lines = report.lines(("ground", "car", "tree"))
    assert lines[0] == "iou_ground = 0.500000"
    assert lines[1] == "iou_car = 0.500000"
    assert lines[2] == "iou_tree = absent"
    assert lines[3] == "miou = 0.500000"
    assert len(lines) == 4
    payload = json.loads(json.dumps(report.to_json_dict()))
    assert payload["per_class_iou"] == [0.5, 0.5, None]
    assert payload["miou"] == pytest.approx(0.5)
