"""Output checks made apart from the program.

Each check returns a list of problems, empty when the output passes. The
checks recompute what they compare against with plain numpy (marginals,
a forward pass, TP/FP/FN counts) or test a property the method must have
(finite losses, non-negative plans, the momentum norm envelope); none of
them compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import math

import numpy as np

# The input normalisation and TTA grid of the method, written out here so
# the reference forward pass does not borrow them from the program.
COORD_SCALE = 50.0
TTA_ROTATIONS_DEG = (0.0, 90.0, 180.0, 270.0)
TTA_SCALES = (0.95, 1.0, 1.05)

RESIDUAL_ROUNDING = 1e-12
PROB_TOLERANCE = 1e-9
MIOU_ROUNDING = 1e-12


def check_plan(plan, max_iters: int) -> list[str]:
    """Non-negative entries, residual recomputed from uniform marginals, iteration cap."""
    p = np.asarray(plan.plan, dtype=np.float64)
    n, m = p.shape
    problems = []
    if not np.all(np.isfinite(p)) or np.any(p < 0):
        problems.append(f"plan {n}x{m} has a negative or non-finite entry")
    rows = np.abs(p.sum(axis=1) - 1.0 / n).sum()
    cols = np.abs(p.sum(axis=0) - 1.0 / m).sum()
    residual = float(rows + cols)
    if not abs(residual - plan.residual) <= RESIDUAL_ROUNDING:
        problems.append(
            f"plan {n}x{m}: marginals give residual {residual:.3e}, "
            f"solver reported {plan.residual:.3e}")
    if not 1 <= plan.iters_used <= max_iters:
        problems.append(f"plan {n}x{m}: iters_used {plan.iters_used} outside [1, {max_iters}]")
    return problems


def check_step_losses(losses, active: tuple[str, ...]) -> list[str]:
    """The total and every active component are finite; the step was not skipped."""
    problems = []
    if losses.skipped:
        problems.append("step was skipped")
    for name in ("total", *active):
        value = getattr(losses, name)
        if not math.isfinite(value):
            problems.append(f"{name} loss is {value}")
    return problems


def check_loss_falls(epoch_totals: list[float]) -> list[str]:
    if len(epoch_totals) < 2 or not epoch_totals[-1] < epoch_totals[0]:
        return [f"last epoch's mean total loss does not fall below the first's: {epoch_totals}"]
    return []


def norm_cap(initial_blocks: np.ndarray) -> np.ndarray:
    """Momentum envelope: a convex mix of the block and a unit-norm update
    cannot grow past max(initial norm, 1)."""
    return np.maximum(np.linalg.norm(initial_blocks, axis=(1, 2)), 1.0) + 1e-6


def check_envelope(blocks: np.ndarray, cap: np.ndarray) -> list[str]:
    norms = np.linalg.norm(blocks, axis=(1, 2))
    bad = np.nonzero(~(norms <= cap))[0]
    return [f"block {int(c)} norm {norms[c]:.9f} exceeds {cap[c]:.9f}" for c in bad]


def check_frozen(blocks: np.ndarray, initial_blocks: np.ndarray) -> list[str]:
    if blocks.tobytes() != initial_blocks.tobytes():
        return ["embedding blocks changed although no geometry loss is active"]
    return []


def reference_tta_probs(arrays: dict[str, np.ndarray], points: np.ndarray) -> np.ndarray:
    """Mean softmax over the rotation x scale grid, from the checkpoint arrays alone.

    arrays holds "w<i>", "b<i>" per trunk layer plus "head_w" and "head_b".
    """
    layers = sum(1 for k in arrays if k.startswith("w"))
    x0, y0 = points[:, 0], points[:, 1]
    total = np.zeros((points.shape[0], arrays["head_b"].shape[0]))
    for deg in TTA_ROTATIONS_DEG:
        c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
        for scale in TTA_SCALES:
            h = np.column_stack([
                (c * x0 - s * y0) * scale / COORD_SCALE,
                (s * x0 + c * y0) * scale / COORD_SCALE,
                points[:, 2] * scale / COORD_SCALE,
                points[:, 3],
            ])
            for i in range(layers):
                h = np.tanh(h @ arrays[f"w{i}"] + arrays[f"b{i}"])
            z = h @ arrays["head_w"] + arrays["head_b"]
            e = np.exp(z - z.max(axis=1, keepdims=True))
            total += e / e.sum(axis=1, keepdims=True)
    return total / (len(TTA_ROTATIONS_DEG) * len(TTA_SCALES))


def check_tta(probs: np.ndarray, reference: np.ndarray) -> list[str]:
    if probs.shape != reference.shape:
        return [f"probabilities have shape {probs.shape}, expected {reference.shape}"]
    problems = []
    diff = float(np.max(np.abs(probs - reference))) if probs.size else 0.0
    if not diff <= PROB_TOLERANCE:
        problems.append(f"TTA probabilities differ from the reference by {diff:.3e}")
    flipped = int(np.sum(np.argmax(probs, axis=1) != np.argmax(reference, axis=1)))
    if flipped:
        problems.append(f"{flipped} TTA predictions differ from the reference argmax")
    return problems


def count_miou(gts: list[np.ndarray], preds: list[np.ndarray], num_classes: int,
               ignore_id: int) -> float:
    """mIoU over classes present in the ground truth, from per-class TP, FP, FN."""
    tp = np.zeros(num_classes, dtype=np.int64)
    fp = np.zeros(num_classes, dtype=np.int64)
    fn = np.zeros(num_classes, dtype=np.int64)
    seen = np.zeros(num_classes, dtype=bool)
    for gt, pred in zip(gts, preds):
        valid = gt != ignore_id
        for k in range(num_classes):
            is_gt = valid & (gt == k)
            is_pred = valid & (pred == k)
            tp[k] += int(np.sum(is_gt & is_pred))
            fp[k] += int(np.sum(~is_gt & is_pred))
            fn[k] += int(np.sum(is_gt & ~is_pred))
            seen[k] |= bool(is_gt.any())
    ious = [tp[k] / (tp[k] + fp[k] + fn[k]) for k in range(num_classes) if seen[k]]
    return float(np.mean(ious)) if ious else math.nan


def check_miou(reported: float, counted: float) -> list[str]:
    if not abs(reported - counted) <= MIOU_ROUNDING:
        return [f"reported mIoU {reported!r} differs from counted {counted!r}"]
    return []


def check_same_bytes(name: str, got: np.ndarray, expected: np.ndarray) -> list[str]:
    got = np.asarray(got)
    if (got.dtype, got.shape) != (expected.dtype, expected.shape) or \
            got.tobytes() != expected.tobytes():
        return [f"{name} differs from what was written"]
    return []
