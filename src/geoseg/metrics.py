"""Segmentation quality via a confusion matrix.

IoU per class is TP / (TP + FP + FN); mIoU averages over classes that
actually appear in the ground truth, so a class the data never shows
cannot dilute the mean. Ignored points contribute to nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from geoseg.scenes import IGNORE_ID


def confusion_matrix(gt: np.ndarray, predictions: np.ndarray, num_classes: int) -> np.ndarray:
    """(C, C) counts, rows ground truth, columns prediction."""
    gt = np.asarray(gt)
    predictions = np.asarray(predictions)
    if gt.shape != predictions.shape:
        raise ValueError(f"shape mismatch: {gt.shape} vs {predictions.shape}")
    valid = gt != IGNORE_ID
    g = gt[valid].astype(np.int64)
    p = predictions[valid].astype(np.int64)
    if g.size and (p.min() < 0 or p.max() >= num_classes):
        raise ValueError("predictions outside [0, num_classes)")
    flat = np.bincount(g * num_classes + p, minlength=num_classes * num_classes)
    return flat.reshape(num_classes, num_classes)


def iou_from_confusion(conf: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-class IoU (NaN where undefined), GT-presence mask, and mIoU."""
    conf = np.asarray(conf, dtype=np.int64)
    tp = np.diag(conf).astype(np.float64)
    fp = conf.sum(axis=0) - np.diag(conf)
    fn = conf.sum(axis=1) - np.diag(conf)
    denom = tp + fp + fn
    iou = np.full(conf.shape[0], np.nan)
    np.divide(tp, denom, out=iou, where=denom > 0)
    present = conf.sum(axis=1) > 0
    miou = float(iou[present].mean()) if present.any() else float("nan")
    return iou, present, miou


@dataclass
class MetricsReport:
    """Evaluation summary: per-class IoU, GT presence, mIoU and the confusion matrix."""

    per_class_iou: np.ndarray
    present: np.ndarray
    miou: float
    confusion: np.ndarray

    @classmethod
    def from_confusion(cls, conf: np.ndarray) -> "MetricsReport":
        iou, present, miou = iou_from_confusion(conf)
        return cls(iou, present, miou, np.asarray(conf))

    def lines(self, class_names: tuple[str, ...]) -> list[str]:
        """Structured text, one `name = value` per line."""
        out = []
        for name, present, iou in zip(class_names, self.present, self.per_class_iou, strict=True):
            out.append(f"iou_{name} = {iou:.6f}" if present else f"iou_{name} = absent")
        out.append(f"miou = {self.miou:.6f}")
        return out

    def to_json_dict(self) -> dict:
        """Per-class IoU and mIoU, with null where no class is present, as
        strict JSON has no NaN."""
        return {
            "per_class_iou": [
                None if not self.present[i] else float(self.per_class_iou[i])
                for i in range(self.per_class_iou.shape[0])
            ],
            "miou": self.miou if self.present.any() else None,
        }
