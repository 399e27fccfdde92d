"""Point-wise feature extractor, classifier head, SGD, and checkpoint IO.

Every point is processed independently: the (x, y, z, intensity) input
has its coordinates divided by a fixed scale so they land roughly in
[-1, 1], runs through a small tanh MLP ending in the feature vector, and
an affine head maps features to class logits. The parameters are float64
numpy arrays updated in place by heavy-ball SGD. The forward pass and its
backward compute in the parameters' dtype: training runs them on a float32
copy (PointNetLite.astype) and applies the float32 gradients to the float64
master parameters, while prediction, checkpoints and the gradient check use
the float64 model itself.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from geoseg.autodiff import GradientTape, Var, _row_reduce
from geoseg.geometry_embedding import EmbeddingMatrix, RelationMatrix

if TYPE_CHECKING:
    from geoseg.training import TrainConfig

COORD_SCALE = 50.0

CHECKPOINT_MAGIC = b"GSEG"
CHECKPOINT_VERSION = 1


class CheckpointFormatError(ValueError):
    """An on-disk checkpoint violates the binary format."""


@dataclass
class PointNetLite:
    """Tanh MLP trunk producing point features, plus a linear class head.

    weights[i] maps width i to width i+1; the last trunk layer output is
    the feature dimension D. Weights are initialized from N(0, 1/fan_in),
    biases start at zero.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    head_weight: np.ndarray
    head_bias: np.ndarray

    @classmethod
    def create(
        cls, num_classes: int, widths: tuple[int, ...], rng: np.random.Generator
    ) -> "PointNetLite":
        dims = (4, *widths)  # input rows are x, y, z, intensity
        weights = [
            rng.normal(0.0, 1.0 / np.sqrt(dims[i]), size=(dims[i], dims[i + 1]))
            for i in range(len(widths))
        ]
        biases = [np.zeros(dims[i + 1]) for i in range(len(widths))]
        head_weight = rng.normal(0.0, 1.0 / np.sqrt(dims[-1]), size=(dims[-1], num_classes))
        head_bias = np.zeros(num_classes)
        return cls(weights, biases, head_weight, head_bias)

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def feature_dim(self) -> int:
        return self.weights[-1].shape[1]

    @property
    def num_classes(self) -> int:
        return self.head_weight.shape[1]

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(w.shape[1] for w in self.weights)

    def astype(self, dtype) -> "PointNetLite":
        """A copy with every parameter cast to dtype."""
        return PointNetLite(
            [w.astype(dtype) for w in self.weights],
            [b.astype(dtype) for b in self.biases],
            self.head_weight.astype(dtype),
            self.head_bias.astype(dtype),
        )

    def parameters(self) -> list[np.ndarray]:
        """Parameter arrays in declaration order: (W, b) per layer, then head."""
        out: list[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        out.extend((self.head_weight, self.head_bias))
        return out


def forward_arrays(model: PointNetLite, points: np.ndarray) -> list[np.ndarray]:
    """Scaled input, each trunk activation, then the logits, for (N, 4) points,
    all in the dtype of the model's parameters."""
    x = np.array(points, dtype=model.head_weight.dtype)
    if x.ndim != 2 or x.shape[1] != model.in_dim:
        raise ValueError(f"expected (N, {model.in_dim}) points, got {x.shape}")
    x[:, :3] /= COORD_SCALE
    acts = [x]
    for w, b in zip(model.weights, model.biases):
        h = acts[-1] @ w
        h += b
        acts.append(np.tanh(h, out=h))
    logits = acts[-1] @ model.head_weight
    logits += model.head_bias
    acts.append(logits)
    return acts


class BoundModel:
    """Model parameters wrapped as leaves on one tape.

    Several forward passes through the same BoundModel share parameter
    Vars, so backward accumulates gradients from all of them.
    """

    def __init__(self, model: PointNetLite, tape: GradientTape):
        self.model = model
        self.tape = tape
        self._params = [tape.leaf(p) for p in model.parameters()]

    def forward(self, points: np.ndarray) -> tuple[Var, Var]:
        """Features and logits for an (N, 4) point array, as one tape op."""
        acts = forward_arrays(self.model, points)
        features = Var(acts[-2], self.tape)
        logits = Var(acts[-1], self.tape)
        params = self._params

        def backward():
            head_w, head_b = params[-2:]
            g = logits.grad
            head_b.grad += g.sum(axis=0)
            head_w.grad += features.value.T @ g
            g = features.grad + g @ head_w.value.T
            for i in reversed(range(len(params) // 2 - 1)):
                w, b = params[2 * i], params[2 * i + 1]
                d = acts[i + 1] * acts[i + 1]
                g *= np.subtract(1.0, d, out=d)  # tanh' = 1 - a^2; g is this closure's own
                b.grad += g.sum(axis=0)
                w.grad += acts[i].T @ g
                if i:
                    g = g @ w.value.T

        self.tape.record(backward)
        return features, logits

    def gradients(self) -> list[np.ndarray]:
        """Parameter gradients in PointNetLite.parameters() order."""
        return [v.grad for v in self._params]


def predict_logits(model: PointNetLite, points: np.ndarray) -> np.ndarray:
    return forward_arrays(model, points)[-1]


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of (N, C) logits, reduced one column at a time."""
    ez = z - _row_reduce(np.maximum, z)[:, None]
    np.exp(ez, out=ez)
    ez /= _row_reduce(np.add, ez)[:, None]
    return ez


def sgd_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    velocities: list[np.ndarray],
    cfg: TrainConfig,
) -> None:
    """One in-place heavy-ball step with cfg's lr, momentum and weight_decay.

    Per parameter: v <- momentum * v + grad + weight_decay * param, then
    param <- param - lr * v. A gradient may be float32 (training's network
    pass) against float64 params and velocities; it is widened as it is
    added. Raises FloatingPointError before touching params or velocities.
    """
    if not len(params) == len(grads) == len(velocities):
        raise ValueError("params, grads and velocities must align")
    for i, g in enumerate(grads):
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter {i}")
    for p, g, v in zip(params, grads, velocities):
        v *= cfg.momentum
        v += g
        v += cfg.weight_decay * p
        p -= cfg.lr * v


def save_checkpoint(
    path: str | Path,
    model: PointNetLite,
    relation: RelationMatrix,
    embedding: EmbeddingMatrix,
) -> None:
    """Binary checkpoint: magic, version, dimension header, float64 payload.

    Header uint32s: D, C, M, L (trunk layer count), then the L+1 layer
    widths from input to feature dim. Payload arrays follow in declaration
    order: model parameters, relation values, embedding blocks. Raises
    FloatingPointError, and writes nothing, if any value is not finite.
    """
    arrays = [*model.parameters(), relation.values, embedding.blocks]
    if not all(np.all(np.isfinite(arr)) for arr in arrays):
        raise FloatingPointError("refusing to save a checkpoint with non-finite values")
    d = model.feature_dim
    c = model.num_classes
    m = embedding.num_properties
    dims = (model.in_dim, *model.widths)
    header = [d, c, m, len(model.weights), *dims]
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("B", CHECKPOINT_VERSION)
    blob += np.asarray(header, dtype="<u4").tobytes()
    for arr in arrays:
        blob += arr.astype("<f8").tobytes()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(bytes(blob))


def load_checkpoint(path: str | Path) -> tuple[PointNetLite, RelationMatrix, EmbeddingMatrix]:
    """Inverse of save_checkpoint.

    Raises CheckpointFormatError for anything save_checkpoint cannot
    write: a bad magic or version, a zero dimension, a truncated or
    overlong file, or a non-finite value.
    """
    path = Path(path)
    data = path.read_bytes()
    if len(data) < 5 or data[:4] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"{path}: bad magic, not a checkpoint")
    if data[4] != CHECKPOINT_VERSION:
        raise CheckpointFormatError(f"{path}: unsupported version {data[4]}")
    off = 5

    def take_u32(count: int) -> np.ndarray:
        nonlocal off
        end = off + 4 * count
        if end > len(data):
            raise CheckpointFormatError(f"{path}: truncated header at byte {off}")
        out = np.frombuffer(data[off:end], dtype="<u4")
        off = end
        return out

    d, c, m, n_layers = (int(v) for v in take_u32(4))
    dims = [int(v) for v in take_u32(n_layers + 1)]
    if 0 in (c, m, n_layers, *dims):
        raise CheckpointFormatError(f"{path}: zero dimension in header {[c, m, n_layers, *dims]}")
    if dims[-1] != d:
        raise CheckpointFormatError(f"{path}: feature dim {d} does not match widths {dims}")

    def take_f64(shape: tuple[int, ...]) -> np.ndarray:
        nonlocal off
        end = off + 8 * math.prod(shape)
        if end > len(data):
            raise CheckpointFormatError(f"{path}: truncated payload at byte {off}")
        out = np.frombuffer(data[off:end], dtype="<f8").astype(np.float64).reshape(shape)
        if not np.all(np.isfinite(out)):
            raise CheckpointFormatError(f"{path}: non-finite value in the payload at byte {off}")
        off = end
        return out

    weights = []
    biases = []
    for i in range(n_layers):
        weights.append(take_f64((dims[i], dims[i + 1])))
        biases.append(take_f64((dims[i + 1],)))
    head_w = take_f64((d, c))
    head_b = take_f64((c,))
    relation = RelationMatrix(take_f64((c * m, c)))
    blocks = np.stack([take_f64((d, m)) for _ in range(c)])
    if off != len(data):
        raise CheckpointFormatError(f"{path}: {len(data) - off} trailing bytes at byte {off}")
    model = PointNetLite(weights, biases, head_w, head_b)
    return model, relation, EmbeddingMatrix(blocks)
