import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from geoseg.autodiff import GradientTape, weighted_sum
from geoseg.geometry_embedding import (
    EmbeddingMatrix,
    RelationMatrix,
    class_plan,
    class_update,
    embed,
    embed_var,
    geometry_consistency_loss,
    geometry_property_loss,
    momentum_update,
    reliable_points,
)
from geoseg.network import softmax
from geoseg.scenes import IGNORE_ID, LabelSet
from geoseg.sinkhorn import SinkhornConfig, solve


def embed_oracle(features: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Brute-force triple loop over G[n, c, m] = sum_d F[n, d] A_c[d, m]."""
    n = features.shape[0]
    c, d, m = blocks.shape
    out = np.zeros((n, c, m))
    for i in range(n):
        for ci in range(c):
            for mi in range(m):
                out[i, ci, mi] = sum(
                    features[i, di] * blocks[ci, di, mi] for di in range(d)
                )
    return out


def unit_blocks(rng: np.random.Generator, c: int, d: int, m: int) -> EmbeddingMatrix:
    return EmbeddingMatrix.initial(c, d, m, rng=rng)


# --------------------------------------------------------------------- embed


def test_embedding_matrix_shape_and_validation(rng):
    emb = unit_blocks(rng, 3, 5, 2)
    assert emb.blocks.shape == (3, 5, 2)
    assert (emb.num_classes, emb.num_properties) == (3, 2)
    norms = np.linalg.norm(emb.blocks.reshape(3, -1), axis=1)
    assert_allclose(norms, np.ones(3), atol=1e-12)
    with pytest.raises(ValueError):
        EmbeddingMatrix(np.zeros((2, 2)))


def test_flat2d_groups_columns_by_class(rng):
    emb = unit_blocks(rng, 3, 4, 2)
    flat = emb.flat2d()
    assert flat.shape == (4, 6)
    for c in range(3):
        assert_array_equal(flat[:, c * 2 : (c + 1) * 2], emb.blocks[c])


def test_embed_zero_features_gives_zero():
    emb = EmbeddingMatrix(np.ones((2, 3, 4)))
    assert np.all(embed(np.zeros((5, 3)), emb) == 0.0)


def test_embed_scalar_case():
    emb = EmbeddingMatrix(np.array([[[3.0]]]))
    assert_allclose(embed(np.array([[2.0]]), emb), [[[6.0]]], atol=1e-15)


def test_embed_matches_triple_loop(rng):
    features = rng.normal(size=(4, 3))
    emb = unit_blocks(rng, 2, 3, 2)
    assert_allclose(embed(features, emb), embed_oracle(features, emb.blocks), atol=1e-12)


def test_embed_var_matches_embed_and_routes_gradient(rng):
    features0 = rng.normal(size=(4, 3))
    emb = unit_blocks(rng, 2, 3, 2)
    relation0 = rng.normal(size=(4, 2))
    checksum = hashlib.sha256(emb.blocks.tobytes()).hexdigest()
    tape = GradientTape()
    features, relation = tape.leaf(features0), tape.leaf(relation0)
    logits = embed_var(features, emb, relation)
    flat = embed(features0, emb).reshape(4, 4)
    assert_allclose(logits.value, flat @ relation0, atol=1e-12)
    labels = np.array([0, 1, 1, 0], dtype=np.uint16)
    tape.backward(geometry_property_loss(logits, LabelSet(labels)))
    assert hashlib.sha256(emb.blocks.tobytes()).hexdigest() == checksum
    # Chain rule by hand on the (N, C*M) geometry: d loss / d logits =
    # (softmax - onehot) / N.
    dlogits = softmax(flat @ relation0)
    dlogits[np.arange(4), labels] -= 1.0
    dlogits /= 4
    assert_allclose(relation.grad, flat.T @ dlogits, atol=1e-12)
    assert_allclose(features.grad, (dlogits @ relation0.T) @ emb.flat2d().T, atol=1e-12)


# ---------------------------------------------------------------- class_plan


def test_class_plan_single_point_uniform_row():
    # One point whose geometry under class 1's block is [0.4, 0.4, 0.4].
    blocks = np.zeros((2, 1, 3))
    blocks[1, 0] = [0.4, 0.4, 0.4]
    plan = class_plan(np.ones((1, 1)), EmbeddingMatrix(blocks), 1, np.array([0]),
                      SinkhornConfig())
    assert_allclose(plan.plan, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-12)


def test_class_plan_equals_solve_on_extracted_slice(rng):
    features = rng.normal(size=(8, 5))
    emb = unit_blocks(rng, 3, 5, 4)
    labels = LabelSet(rng.integers(0, 3, size=8).astype(np.uint16))
    cfg = SinkhornConfig(sigma=0.5)
    for class_id in range(3):
        idx = np.nonzero(labels.labels == class_id)[0]
        if idx.size == 0:
            continue
        got = class_plan(features, emb, class_id, idx, cfg)
        expected = solve(features[idx] @ emb.blocks[class_id], cfg)
        assert_array_equal(got.plan, expected.plan)


def test_class_plan_respects_explicit_indices(rng):
    features = rng.normal(size=(6, 4))
    emb = unit_blocks(rng, 2, 4, 3)
    idx = np.array([1, 4])
    cfg = SinkhornConfig(sigma=0.5)
    got = class_plan(features, emb, 0, idx, cfg)
    expected = solve(features[idx] @ emb.blocks[0], cfg)
    assert_array_equal(got.plan, expected.plan)


def test_class_plan_cost_is_the_slice_of_the_full_geometry(rng, monkeypatch):
    # The reliable rows under one block give the slice [rel, c, :] of the
    # (N, C, M) geometry, and the solver takes as many iterations on both.
    import geoseg.geometry_embedding as ge

    features = rng.normal(size=(300, 32))
    emb = unit_blocks(rng, 6, 32, 8)
    cfg = SinkhornConfig(max_iters=50)
    costs = []
    monkeypatch.setattr(ge, "solve", lambda cost, cfg: costs.append(cost) or solve(cost, cfg))
    geometry = embed(features, emb)
    for class_id in range(6):
        rel = np.sort(rng.choice(300, size=40, replace=False))
        got = class_plan(features, emb, class_id, rel, cfg)
        want = solve(geometry[rel, class_id, :], cfg)
        assert_allclose(costs[-1], geometry[rel, class_id, :], atol=1e-12, rtol=0)
        assert got.iters_used == want.iters_used
        assert_allclose(got.plan, want.plan, atol=1e-12, rtol=0)


# -------------------------------------------------------------- class_update


def test_class_update_zero_features(rng):
    plan = solve(rng.normal(size=(3, 2)), SinkhornConfig(sigma=0.5))
    update = class_update(np.zeros((5, 4)), plan, np.array([0, 2, 3]))
    assert_array_equal(update, np.zeros((4, 2)))


def test_class_update_single_basis_point():
    features = np.zeros((3, 4))
    features[1, 0] = 1.0
    plan = solve(np.zeros((1, 1)), SinkhornConfig())
    update = class_update(features, plan, np.array([1]))
    assert_array_equal(update, np.array([[1.0], [0.0], [0.0], [0.0]]))


def test_class_update_matches_accumulation_loop(rng):
    features = rng.normal(size=(7, 3))
    reliable = np.array([0, 2, 5])
    plan = solve(rng.normal(size=(3, 4)), SinkhornConfig(sigma=0.5))
    expected = np.zeros((3, 4))
    for row, point in enumerate(reliable):
        for d in range(3):
            for m in range(4):
                expected[d, m] += features[point, d] * plan.plan[row, m]
    assert_allclose(class_update(features, plan, reliable), expected, atol=1e-12)


def test_class_update_empty_and_mismatched(rng):
    plan = solve(rng.normal(size=(2, 2)), SinkhornConfig(sigma=0.5))
    with pytest.raises(ValueError, match="2 rows but 3 reliable"):
        class_update(np.zeros((4, 3)), plan, np.array([0, 1, 2]))


# ----------------------------------------------------------- reliable points


def test_reliable_points_cases():
    labels = LabelSet(np.array([0, 1, 1, 2, 1], dtype=np.uint16))
    same = np.array([0, 1, 1, 2, 1])
    assert_array_equal(reliable_points(labels, same, 1), [1, 2, 4])
    disjoint = np.array([1, 0, 0, 1, 0])
    assert reliable_points(labels, disjoint, 1).size == 0


def test_reliable_points_matches_double_filter(rng):
    labels = LabelSet(rng.integers(0, 4, size=50).astype(np.uint16))
    preds = rng.integers(0, 4, size=50)
    for c in range(4):
        expected = [
            i for i in range(50) if labels.labels[i] == c and preds[i] == c
        ]
        assert_array_equal(reliable_points(labels, preds, c), expected)


# ------------------------------------------------------------ momentum update


def test_momentum_epsilon_one_is_bit_identical(rng):
    emb = unit_blocks(rng, 3, 4, 2)
    before = emb.blocks.tobytes()
    momentum_update(emb, {0: rng.normal(size=(4, 2)), 2: rng.normal(size=(4, 2))}, 1.0)
    assert emb.blocks.tobytes() == before


def test_momentum_epsilon_zero_gives_unit_frobenius_block(rng):
    emb = unit_blocks(rng, 2, 4, 3)
    update = rng.normal(size=(4, 3))
    momentum_update(emb, {1: update}, 0.0)
    assert_allclose(np.linalg.norm(emb.blocks[1]), 1.0, atol=1e-12)
    assert_allclose(emb.blocks[1], update / np.linalg.norm(update), atol=1e-12)


def test_momentum_recurrence_matches_hand_rolled(rng):
    emb = unit_blocks(rng, 2, 3, 2)
    expected = emb.blocks[0].copy()
    eps = 0.9999
    for _ in range(5):
        update = rng.normal(size=(3, 2))
        momentum_update(emb, {0: update}, eps)
        expected = eps * expected + (1 - eps) * update / np.linalg.norm(update)
    assert_allclose(emb.blocks[0], expected, atol=1e-14)


def test_momentum_zero_update_is_skipped(rng):
    emb = unit_blocks(rng, 2, 3, 2)
    before = emb.blocks.tobytes()
    momentum_update(emb, {0: np.zeros((3, 2))}, 0.5)
    assert emb.blocks.tobytes() == before


def test_momentum_absent_classes_untouched(rng):
    emb = unit_blocks(rng, 3, 3, 2)
    before = emb.blocks[2].tobytes()
    momentum_update(emb, {0: rng.normal(size=(3, 2))}, 0.5)
    assert emb.blocks[2].tobytes() == before


def test_momentum_validation(rng):
    emb = unit_blocks(rng, 2, 3, 2)
    with pytest.raises(ValueError):
        momentum_update(emb, {0: np.zeros((2, 2))}, 0.5)
    with pytest.raises(ValueError):
        momentum_update(emb, {}, 1.5)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=1, max_value=40),
    st.sampled_from([0.0, 0.5, 0.9999, 1.0]),
)
def test_momentum_norm_never_exceeds_unit_envelope(seed, steps, eps):
    # Unit initial blocks stay inside the unit ball envelope: each update
    # is a convex combination of the block and a unit-norm direction.
    rng = np.random.default_rng(seed)
    emb = unit_blocks(rng, 2, 3, 2)
    initial = max(np.linalg.norm(emb.blocks[c]) for c in range(2))
    for _ in range(steps):
        momentum_update(emb, {c: rng.normal(size=(3, 2)) for c in range(2)}, eps)
    for c in range(2):
        assert np.linalg.norm(emb.blocks[c]) <= max(initial, 1.0) + 1e-6


# -------------------------------------------------------------------- losses


def gpl_oracle(geometry: np.ndarray, q: np.ndarray, labels: np.ndarray) -> float:
    import math

    n = geometry.shape[0]
    total, count = 0.0, 0
    for i in range(n):
        if labels[i] == IGNORE_ID:
            continue
        logits = geometry[i].reshape(-1) @ q
        hi = max(logits)
        denom = sum(math.exp(v - hi) for v in logits)
        total += -(logits[labels[i]] - hi - math.log(denom))
        count += 1
    return total / count


def test_property_loss_matches_scalar_oracle(rng):
    n, c, m, d = 5, 3, 2, 4
    features0 = rng.normal(size=(n, d))
    emb = unit_blocks(rng, c, d, m)
    relation = RelationMatrix.initial(c, m, rng=rng)
    labels = LabelSet(np.array([0, 2, IGNORE_ID, 1, 2], dtype=np.uint16))
    tape = GradientTape()
    logits = embed_var(tape.leaf(features0), emb, tape.leaf(relation.values))
    loss = geometry_property_loss(logits, labels)
    assert_allclose(
        float(loss.value),
        gpl_oracle(embed_oracle(features0, emb.blocks), relation.values, labels.labels),
        atol=1e-10,
    )


def test_property_loss_gradients_match_finite_differences(rng):
    # Through the fused embed_var op: into the features and the relation matrix.
    n, c, m, d = 5, 3, 2, 4
    features0 = rng.normal(size=(n, d))
    emb = unit_blocks(rng, c, d, m)
    relation0 = rng.normal(size=(c * m, c))
    labels = LabelSet(np.array([0, 2, 1, 1, 2], dtype=np.uint16))

    def value():
        return gpl_oracle(embed(features0, emb), relation0, labels.labels)

    tape = GradientTape()
    features = tape.leaf(features0)
    relation_var = tape.leaf(relation0)
    logits = embed_var(features, emb, relation_var)
    tape.backward(geometry_property_loss(logits, labels))

    step = 1e-5
    for arr, grad in ((features0, features.grad), (relation0, relation_var.grad)):
        flat, gflat = arr.ravel(), grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = value()
            flat[i] = orig - step
            lo = value()
            flat[i] = orig
            fd = (hi - lo) / (2 * step)
            assert abs(fd - gflat[i]) <= max(1e-8, 1e-4 * max(abs(fd), abs(gflat[i])))


def test_property_loss_all_masked_returns_none(rng):
    tape = GradientTape()
    logits = tape.leaf(rng.normal(size=(3, 2)))
    labels = LabelSet(np.full(3, IGNORE_ID, dtype=np.uint16))
    assert geometry_property_loss(logits, labels) is None


def test_consistency_loss_identity_augmentation_equals_property_loss(rng):
    features0 = rng.normal(size=(6, 4))
    emb = unit_blocks(rng, 3, 4, 2)
    relation = RelationMatrix.initial(3, 2, rng=rng)
    labels = LabelSet(rng.integers(0, 3, size=6).astype(np.uint16))

    tape = GradientTape()
    features = tape.leaf(features0)
    relation_var = tape.leaf(relation.values)
    via_consistency = geometry_consistency_loss(features, emb, relation_var, labels)
    via_property = geometry_property_loss(embed_var(features, emb, relation_var), labels)
    assert float(via_consistency.value) == float(via_property.value)


def test_consistency_loss_gradient_never_reaches_blocks(rng):
    features0 = rng.normal(size=(6, 4))
    emb = unit_blocks(rng, 3, 4, 2)
    relation = RelationMatrix.initial(3, 2, rng=rng)
    labels = LabelSet(rng.integers(0, 3, size=6).astype(np.uint16))
    checksum = hashlib.sha256(emb.blocks.tobytes()).hexdigest()
    tape = GradientTape()
    features = tape.leaf(features0)
    relation_var = tape.leaf(relation.values)
    loss = geometry_consistency_loss(features, emb, relation_var, labels)
    tape.backward(weighted_sum([(loss, 2.0)]))
    assert hashlib.sha256(emb.blocks.tobytes()).hexdigest() == checksum
    assert np.any(features.grad != 0.0)
    assert np.any(relation_var.grad != 0.0)
