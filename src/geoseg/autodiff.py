"""Tape-based reverse-mode differentiation over numpy arrays.

Deliberately tiny: the fused layers (network.BoundModel.forward and
geometry_embedding.embed_var, which yields the relation logits) record
their own backward closures, and this module adds only the two ops the
training loss needs on top of them: masked_cross_entropy, and merge_rows,
which builds the adverse copy's rows from the clean pass and a pass over
the rows the augmentation changed. Each op computes its value eagerly and
pushes a closure onto the tape. GradientTape.backward takes the weighted
loss terms, seeds each term's gradient with its weight, and replays the
closures in reverse, accumulating into Var.grad; the weighted total itself
is never a tape op. Gradients of untouched leaves stay exactly zero.
Constant arrays (anything passed as a plain ndarray) never receive
gradients.

Logits have few columns (one per class) and thousands of rows, so the
cross-entropy takes its row max and row sum one column at a time
(_row_reduce), at a quarter to a tenth of the cost of the axis-1
reductions. network.softmax and sinkhorn.solve (its row min) use the
same helper.
"""

from __future__ import annotations

import numpy as np

from geoseg.scenes import IGNORE_ID


class GradientTape:
    """Execution-ordered record of backward closures for one step."""

    def __init__(self):
        self._ops: list = []

    def leaf(self, value) -> "Var":
        return Var(value, self)

    def record(self, backward_fn) -> None:
        self._ops.append(backward_fn)

    def backward(self, terms: list[tuple["Var", float]]) -> None:
        """Accumulate d(sum_i w_i * x_i)/d(leaf) into every Var on this tape.

        terms holds (x_i, w_i) pairs of scalar Vars and their weights; a Var
        listed twice is seeded with the sum of its weights. Call once per
        tape; a second call would accumulate gradients twice.
        """
        for v, w in terms:
            if v.value.size != 1:
                raise ValueError(f"backward term must be scalar, got shape {v.value.shape}")
            v.grad += w
        for fn in reversed(self._ops):
            fn()
        # Drop the closures: they pin every intermediate array, and the
        # Var <-> tape cycle would otherwise wait for a gen-2 GC pass.
        self._ops.clear()


class Var:
    """Array value plus accumulated gradient, attached to a tape."""

    __slots__ = ("value", "grad", "tape", "__weakref__")

    def __init__(self, value, tape: GradientTape):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.tape = tape


def _row_reduce(ufunc: np.ufunc, z: np.ndarray) -> np.ndarray:
    """ufunc.reduce(z, axis=1) of a 2-D array, one ufunc call per column.

    Over the few columns of a logits, point or cost array this is 4-10
    times faster than the reduction, which walks each short row on its own.
    np.maximum, np.minimum and np.logical_and give the same bits at any
    width; np.add does below eight columns, where numpy too adds a row in
    order.
    """
    out = z[:, 0].copy()
    for j in range(1, z.shape[1]):
        ufunc(out, z[:, j], out=out)
    return out


def masked_cross_entropy(logits: Var, labels: np.ndarray) -> Var | None:
    """Mean cross-entropy of softmax(logits) over points not labeled IGNORE_ID.

    Returns None when every point is ignored; the caller treats that as a
    loss contributing zero with zero gradient. When no point is ignored,
    the rows are read and written in place, with no gather or scatter.
    """
    labels = np.asarray(labels)
    valid = labels != IGNORE_ID
    k = int(np.count_nonzero(valid))
    if k == 0:
        return None
    rows = slice(None) if k == labels.size else np.nonzero(valid)[0]
    picked = labels[rows]
    z = logits.value[rows]
    ez = z - _row_reduce(np.maximum, z)[:, None]
    picked_z = ez[np.arange(k), picked]
    np.exp(ez, out=ez)
    sez = _row_reduce(np.add, ez)
    out = Var(-(picked_z - np.log(sez)).mean(), logits.tape)

    def backward():
        p = ez  # ez is this closure's own, and the tape runs it once
        p /= sez[:, None]
        p[np.arange(k), picked] -= 1.0
        p *= float(out.grad) / k
        logits.grad[rows] += p

    logits.tape.record(backward)
    return out


def merge_rows(clean: Var, clean_rows: np.ndarray, fresh: Var | None,
               from_clean: np.ndarray) -> Var:
    """Rows of two Vars interleaved into one, as one tape op.

    Output row j is the next row of clean[clean_rows] where from_clean[j]
    is true, and the next row of fresh (None when there is no such row)
    where it is false. clean_rows holds no index twice, so the backward
    scatter is a plain fancy-index +=.
    """
    value = np.empty((from_clean.size, clean.value.shape[1]))
    value[from_clean] = clean.value[clean_rows]
    if fresh is not None:
        value[~from_clean] = fresh.value
    out = Var(value, clean.tape)

    def backward():
        clean.grad[clean_rows] += out.grad[from_clean]
        if fresh is not None:
            fresh.grad += out.grad[~from_clean]

    clean.tape.record(backward)
    return out
