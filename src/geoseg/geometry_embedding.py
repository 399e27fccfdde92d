"""Category-level geometry embedding.

Each class c owns a D x M block A_c that turns point features into M
geometric property activations. Blocks are fitted from entropic
transport plans between a class's reliable points and its property
slots, then folded into the running blocks by momentum; they are never
touched by gradient descent. A trainable (C*M) x C relation matrix maps
the flattened activations back to class logits for two losses: one on
original features and one on features of the adversely augmented copy,
which pulls the augmented geometry toward the clean-class structure.

Neither path builds the (N, C*M) geometry of a whole batch. The losses
fold the blocks into the relation matrix first, flat2d() @ Q, a D x C
matrix, so the logits cost one N x D x C product. A class's plan needs
only its reliable rows under its own block, features[rel] @ A_c.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from geoseg.autodiff import Var, masked_cross_entropy
from geoseg.scenes import LabelSet
from geoseg.sinkhorn import SinkhornConfig, TransportPlan, solve


@dataclass
class EmbeddingMatrix:
    """Per-class geometry blocks, shape (C, D, M); momentum-updated only."""

    blocks: np.ndarray

    def __post_init__(self):
        self.blocks = np.asarray(self.blocks, dtype=np.float64)
        if self.blocks.ndim != 3:
            raise ValueError(f"blocks must be (C, D, M), got shape {self.blocks.shape}")

    @property
    def num_properties(self) -> int:
        return self.blocks.shape[2]

    def flat2d(self) -> np.ndarray:
        """(D, C*M) view with columns grouped class-major: block c occupies
        columns c*M .. (c+1)*M."""
        c, d, m = self.blocks.shape
        return self.blocks.transpose(1, 0, 2).reshape(d, c * m)

    @classmethod
    def initial(
        cls,
        num_classes: int,
        feature_dim: int,
        num_properties: int,
        rng: np.random.Generator,
    ) -> "EmbeddingMatrix":
        """Gaussian bootstrap with every block scaled to unit Frobenius norm."""
        blocks = rng.normal(
            0.0, 1.0 / np.sqrt(feature_dim), size=(num_classes, feature_dim, num_properties)
        )
        norms = np.linalg.norm(blocks.reshape(num_classes, -1), axis=1)
        blocks /= norms[:, None, None]
        return cls(blocks)


@dataclass
class RelationMatrix:
    """Trainable (C*M, C) map from geometry activations to class logits."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {self.values.shape}")

    @classmethod
    def initial(
        cls, num_classes: int, num_properties: int, rng: np.random.Generator
    ) -> "RelationMatrix":
        cm = num_classes * num_properties
        return cls(rng.normal(0.0, 1.0 / np.sqrt(cm), size=(cm, num_classes)))


def embed(features: np.ndarray, embedding: EmbeddingMatrix) -> np.ndarray:
    """G[n, c, m] = sum_d F[n, d] * A_c[d, m], as a plain array."""
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    c, _, m = embedding.blocks.shape
    return (features @ embedding.flat2d()).reshape(n, c, m)


def embed_var(features: Var, embedding: EmbeddingMatrix, relation: Var) -> Var:
    """Relation logits G @ Q of the flat geometry G = F @ flat2d(), as one
    tape op, shape (N, C).

    They are computed as F @ (flat2d() @ Q): the (N, C*M) geometry is never
    built, forward or backward. The embedding is a constant: gradients
    reach the features and the relation matrix only. The logits and the
    relation matrix's gradient are in the relation matrix's dtype (float32
    features are widened once); the features' gradient is rounded to theirs.
    """
    flat = embedding.flat2d()
    mixed = flat @ relation.value
    wide = features.value.astype(mixed.dtype, copy=False)
    logits = Var(wide @ mixed, features.tape)

    def backward():
        relation.grad += flat.T @ (wide.T @ logits.grad)
        features.grad += (logits.grad @ mixed.T).astype(features.grad.dtype, copy=False)

    features.tape.record(backward)
    return logits


def class_plan(
    features: np.ndarray,
    embedding: EmbeddingMatrix,
    class_id: int,
    indices: np.ndarray,
    cfg: SinkhornConfig,
) -> TransportPlan:
    """Transport plan between the given points of one class and its M
    property slots.

    The cost is the points' geometry under the class's block,
    features[indices] @ A_c: the slice [indices, class_id, :] of
    embed(features, embedding), built for those rows and that block only.
    """
    return solve(features[indices] @ embedding.blocks[class_id], cfg)


def class_update(features: np.ndarray, plan: TransportPlan, reliable: np.ndarray) -> np.ndarray:
    """Fresh block estimate F_reliable^T @ plan, shape (D, M)."""
    if plan.shape[0] != reliable.size:
        raise ValueError(
            f"plan has {plan.shape[0]} rows but {reliable.size} reliable points"
        )
    return features[reliable].T @ plan.plan


def reliable_points(labels: LabelSet, predictions: np.ndarray, class_id: int) -> np.ndarray:
    """Indices where the label and the current prediction agree on class_id."""
    predictions = np.asarray(predictions)
    return np.nonzero((labels.labels == class_id) & (predictions == class_id))[0]


def momentum_update(
    embedding: EmbeddingMatrix,
    updates: Mapping[int, np.ndarray],
    epsilon: float,
) -> EmbeddingMatrix:
    """Fold normalized fresh blocks into the running blocks in place.

    A_c <- epsilon * A_c + (1 - epsilon) * update_c / ||update_c||_F.
    Zero-norm updates are skipped; classes absent from updates keep
    their blocks bit-identical.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    for class_id, update in updates.items():
        update = np.asarray(update, dtype=np.float64)
        if update.shape != embedding.blocks.shape[1:]:
            raise ValueError(
                f"update for class {class_id} has shape {update.shape}, "
                f"expected {embedding.blocks.shape[1:]}"
            )
        norm = float(np.linalg.norm(update))
        if norm == 0.0 or epsilon == 1.0:
            continue
        embedding.blocks[class_id] = (
            epsilon * embedding.blocks[class_id] + (1.0 - epsilon) * (update / norm)
        )
    return embedding


def geometry_property_loss(logits: Var, labels: LabelSet) -> Var | None:
    """Cross-entropy of softmax(G @ Q) against labels, given the relation
    logits G @ Q of embed_var.

    Mean over non-ignored points; None when every point is ignored. It is
    masked_cross_entropy under the loss's own name, kept because
    bench/tracing.py patches training.geometry_property_loss to time it.
    """
    return masked_cross_entropy(logits, labels.labels)


def geometry_consistency_loss(
    features_aug: Var,
    embedding: EmbeddingMatrix,
    relation: Var,
    labels_aug: LabelSet,
) -> Var | None:
    """Property loss on augmented features embedded with the clean-data blocks."""
    return geometry_property_loss(embed_var(features_aug, embedding, relation), labels_aug)
