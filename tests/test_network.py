import gc
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from geoseg.autodiff import GradientTape, Var, masked_cross_entropy
from geoseg.geometry_embedding import EmbeddingMatrix, RelationMatrix
from geoseg.network import (
    COORD_SCALE,
    CheckpointFormatError,
    BoundModel,
    PointNetLite,
    forward_arrays,
    load_checkpoint,
    predict_logits,
    save_checkpoint,
    sgd_step,
    softmax,
)
from geoseg.scenes import IGNORE_ID
from geoseg.streams import substream
from geoseg.training import TrainConfig


def scalar_forward_oracle(model: PointNetLite, point: np.ndarray):
    """Pure-python per-unit re-implementation of one point's forward pass."""
    h = [point[0] / COORD_SCALE, point[1] / COORD_SCALE, point[2] / COORD_SCALE, point[3]]
    for w, b in zip(model.weights, model.biases):
        h = [
            math.tanh(sum(h[i] * w[i, j] for i in range(len(h))) + b[j])
            for j in range(w.shape[1])
        ]
    logits = [
        sum(h[i] * model.head_weight[i, j] for i in range(len(h))) + model.head_bias[j]
        for j in range(model.head_weight.shape[1])
    ]
    return h, logits


def tiny_model(rng=None, num_classes=3, widths=(5, 4)) -> PointNetLite:
    return PointNetLite.create(num_classes, widths=widths, rng=rng or substream(0, "m"))


def test_create_shapes_and_init():
    model = PointNetLite.create(6, widths=(64, 64, 32), rng=substream(0, "init"))
    assert model.in_dim == 4
    assert model.widths == (64, 64, 32)
    assert model.feature_dim == 32
    assert model.num_classes == 6
    assert all(np.all(b == 0.0) for b in model.biases)
    assert np.all(model.head_bias == 0.0)
    assert len(model.parameters()) == 2 * 3 + 2


def test_zero_model_gives_zero_logits(rng):
    model = tiny_model()
    for arr in model.parameters():
        arr[...] = 0.0
    logits = predict_logits(model, rng.uniform(-10, 10, size=(7, 4)))
    assert_array_equal(logits, np.zeros((7, 3)))


def test_empty_cloud_gives_empty_outputs():
    model = tiny_model()
    features, logits = BoundModel(model, GradientTape()).forward(np.empty((0, 4)))
    assert features.value.shape == (0, 4)
    assert logits.value.shape == (0, 3)


def test_forward_matches_scalar_oracle(rng):
    model = tiny_model(rng=substream(1, "m"))
    points = rng.uniform(-45, 45, size=(3, 4))
    points[:, 3] = rng.uniform(0, 1, size=3)
    features, logits = BoundModel(model, GradientTape()).forward(points)
    for i in range(3):
        h, z = scalar_forward_oracle(model, points[i])
        assert_allclose(features.value[i], h, atol=1e-12)
        assert_allclose(logits.value[i], z, atol=1e-12)


def test_predict_logits_builds_no_tape_and_leaves_no_cycles(rng, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("inference must not record on a tape")

    monkeypatch.setattr(GradientTape, "__init__", refuse)
    monkeypatch.setattr(Var, "__init__", refuse)
    model = tiny_model()
    points = rng.uniform(-40, 40, size=(8, 4))
    gc.collect()
    gc.disable()
    try:
        logits = predict_logits(model, points)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert logits.shape == (8, 3)


def test_forward_is_permutation_equivariant(rng):
    model = tiny_model()
    points = rng.uniform(-40, 40, size=(9, 4))
    perm = rng.permutation(9)
    base = predict_logits(model, points)
    assert_array_equal(predict_logits(model, points[perm]), base[perm])


def test_forward_does_not_mutate_input(rng):
    model = tiny_model()
    points = rng.uniform(-40, 40, size=(5, 4))
    copy = points.copy()
    BoundModel(model, GradientTape()).forward(points)
    assert_array_equal(points, copy)


def test_forward_rejects_wrong_width():
    model = tiny_model()
    with pytest.raises(ValueError, match=r"\(N, 4\)"):
        BoundModel(model, GradientTape()).forward(np.zeros((3, 5)))


def test_softmax_rows_normalize(rng):
    probs = softmax(rng.normal(size=(6, 4)) * 30)
    assert np.all(probs >= 0)
    assert_allclose(probs.sum(axis=1), np.ones(6), atol=1e-12)


def biased_model(rng) -> PointNetLite:
    model = tiny_model(rng=substream(2, "m"))
    for b in (*model.biases, model.head_bias):
        b[...] = rng.normal(size=b.shape)
    return model


def reference_acts(model: PointNetLite, points: np.ndarray) -> list[np.ndarray]:
    """forward_arrays written with one new array per operation, in the
    model's dtype."""
    x = points.astype(model.head_weight.dtype)
    x[:, :3] /= COORD_SCALE
    acts = [x]
    for w, b in zip(model.weights, model.biases):
        acts.append(np.tanh(acts[-1] @ w + b))
    acts.append(acts[-1] @ model.head_weight + model.head_bias)
    return acts


def test_forward_arrays_equals_the_out_of_place_reference_bytewise(rng):
    model = biased_model(rng)
    points = rng.uniform(-45, 45, size=(40, 4))
    got = forward_arrays(model, points)
    want = reference_acts(model, points)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def test_bound_model_gradients_equal_the_out_of_place_reference_bytewise(rng):
    model = biased_model(rng)
    points = rng.uniform(-45, 45, size=(40, 4))
    tape = GradientTape()
    bound = BoundModel(model, tape)
    features, logits = bound.forward(points)
    features.grad[...] = rng.normal(size=features.grad.shape)
    logits.grad[...] = rng.normal(size=logits.grad.shape)
    g_features, g_logits = features.grad.copy(), logits.grad.copy()
    tape.backward([])  # replays only the forward's closure

    acts = reference_acts(model, points)
    grads = [np.zeros_like(p) for p in model.parameters()]
    grads[-1] += g_logits.sum(axis=0)
    grads[-2] += acts[-2].T @ g_logits
    g = g_features + g_logits @ model.head_weight.T
    for i in reversed(range(len(model.weights))):
        g = (1.0 - acts[i + 1] * acts[i + 1]) * g
        grads[2 * i + 1] += g.sum(axis=0)
        grads[2 * i] += acts[i].T @ g
        if i:
            g = g @ model.weights[i].T
    for got, want in zip(bound.gradients(), grads):
        assert got.tobytes() == want.tobytes()


def test_a_float32_copy_runs_forward_and_backward_in_float32(rng):
    model = biased_model(rng)
    copy = model.astype(np.float32)
    for p, q in zip(model.parameters(), copy.parameters()):
        assert q.dtype == np.float32 and not np.shares_memory(p, q)
        assert_array_equal(q, p.astype(np.float32))
    points = rng.uniform(-45, 45, size=(40, 4))
    for got, want, wide in zip(forward_arrays(copy, points), reference_acts(copy, points),
                               forward_arrays(model, points)):
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()
        assert_allclose(got, wide, rtol=1e-5, atol=1e-6)
    tape = GradientTape()
    bound = BoundModel(copy, tape)
    features, logits = bound.forward(points)
    assert features.value.dtype == logits.value.dtype == np.float32
    loss = masked_cross_entropy(logits, rng.integers(0, 3, size=40))
    tape.backward([(loss, 1.0)])
    assert [g.dtype for g in bound.gradients()] == [np.float32] * len(model.parameters())
    assert all(p.dtype == np.float64 for p in model.parameters())


@pytest.mark.parametrize("columns", [1, 2, 6, 7, 8, 19])
def test_softmax_equals_the_axis_reduction_reference(columns, rng):
    z = rng.normal(size=(300, columns)) * 20
    z[::4, -1] = z[::4, 0]  # ties at the row max
    before = z.copy()
    ez = np.exp(z - z.max(axis=-1, keepdims=True))
    want = ez / ez.sum(axis=-1, keepdims=True)
    got = softmax(z)
    assert_array_equal(z, before)
    if columns < 8:  # _row_reduce's np.add gives numpy's bits below 8 columns
        assert got.tobytes() == want.tobytes()
    else:
        assert_allclose(got, want, rtol=1e-14, atol=0.0)


def test_seg_loss_is_storage_order_invariant(rng):
    model = tiny_model()
    points = rng.uniform(-40, 40, size=(12, 4))
    labels = rng.integers(0, 3, size=12).astype(np.uint16)
    perm = rng.permutation(12)

    def loss(pts, raw):
        tape = GradientTape()
        _, logits = BoundModel(model, tape).forward(pts)
        return float(masked_cross_entropy(logits, raw).value)

    assert loss(points, labels) == pytest.approx(loss(points[perm], labels[perm]), abs=1e-12)


def test_seg_loss_all_ignored_is_none(rng):
    model = tiny_model()
    tape = GradientTape()
    _, logits = BoundModel(model, tape).forward(rng.uniform(-1, 1, size=(4, 4)))
    assert masked_cross_entropy(logits, np.full(4, IGNORE_ID, dtype=np.uint16)) is None


def test_two_forwards_accumulate_into_shared_parameters(rng):
    model = tiny_model()
    pts_a = rng.uniform(-40, 40, size=(6, 4))
    pts_b = rng.uniform(-40, 40, size=(6, 4))
    labels = rng.integers(0, 3, size=6).astype(np.uint16)

    def grads_for(selection):
        tape = GradientTape()
        bound = BoundModel(model, tape)
        parts = [masked_cross_entropy(bound.forward(pts)[1], labels) for pts in selection]
        tape.backward([(part, 1.0) for part in parts])
        return [g.copy() for g in bound.gradients()]

    combined = grads_for([pts_a, pts_b])
    only_a = grads_for([pts_a])
    only_b = grads_for([pts_b])
    for g_ab, g_a, g_b in zip(combined, only_a, only_b):
        assert_allclose(g_ab, g_a + g_b, atol=1e-12)


# ------------------------------------------------------------------------ SGD


def test_sgd_noop_when_everything_is_zero():
    cfg = TrainConfig(lr=0.5, momentum=0.9, weight_decay=0.0)
    param = np.array([1.0, -2.0])
    sgd_step([param], [np.zeros(2)], [np.zeros(2)], cfg)
    assert_array_equal(param, [1.0, -2.0])


def test_sgd_single_scalar_step():
    cfg = TrainConfig(lr=0.1, momentum=0.0, weight_decay=0.0)
    param = np.array([1.0])
    sgd_step([param], [np.array([1.0])], [np.zeros(1)], cfg)
    assert param[0] == pytest.approx(0.9, abs=1e-15)


def test_sgd_two_steps_match_hand_unrolled_recurrence():
    lr, mom, wd = 0.24, 0.9, 1e-4
    cfg = TrainConfig(lr=lr, momentum=mom, weight_decay=wd)
    param = np.array([0.7])
    velocities = [np.zeros(1)]
    g1, g2 = 0.3, -0.2

    p, v = 0.7, 0.0
    v = mom * v + g1 + wd * p
    p = p - lr * v
    v = mom * v + g2 + wd * p
    p = p - lr * v

    sgd_step([param], [np.array([g1])], velocities, cfg)
    sgd_step([param], [np.array([g2])], velocities, cfg)
    assert param[0] == pytest.approx(p, abs=1e-15)


def test_sgd_rejects_nonfinite_gradient_without_touching_params():
    cfg = TrainConfig(lr=0.1, momentum=0.9, weight_decay=1e-4)
    params = [np.array([1.0]), np.array([2.0])]
    before = [p.copy() for p in params]
    velocities = [np.zeros(1), np.zeros(1)]
    with pytest.raises(FloatingPointError, match="parameter 1"):
        sgd_step(params, [np.array([0.1]), np.array([np.nan])], velocities, cfg)
    for p, b in zip(params, before):
        assert_array_equal(p, b)


def test_sgd_alignment_check():
    cfg = TrainConfig(lr=0.1, momentum=0.9, weight_decay=1e-4)
    with pytest.raises(ValueError):
        sgd_step([np.zeros(1)], [], [np.zeros(1)], cfg)


# ----------------------------------------------------------------- checkpoint


def make_bundle(seed=0, num_classes=5, widths=(6, 4), props=3):
    rng = substream(seed, "bundle")
    model = PointNetLite.create(num_classes, widths=widths, rng=rng)
    relation = RelationMatrix.initial(num_classes, props, rng=rng)
    embedding = EmbeddingMatrix.initial(num_classes, model.feature_dim, props, rng=rng)
    return model, relation, embedding


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    model, relation, embedding = make_bundle()
    path = tmp_path / "m.gseg"
    save_checkpoint(path, model, relation, embedding)
    back_model, back_relation, back_embedding = load_checkpoint(path)
    for a, b in zip(model.parameters(), back_model.parameters()):
        assert a.tobytes() == b.tobytes()
    assert relation.values.tobytes() == back_relation.values.tobytes()
    assert embedding.blocks.tobytes() == back_embedding.blocks.tobytes()
    assert back_model.widths == model.widths


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.gseg"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(CheckpointFormatError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_rejects_unknown_version(tmp_path):
    model, relation, embedding = make_bundle()
    path = tmp_path / "m.gseg"
    save_checkpoint(path, model, relation, embedding)
    data = bytearray(path.read_bytes())
    data[4] = 99
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointFormatError, match="version 99"):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation_with_position(tmp_path):
    model, relation, embedding = make_bundle()
    path = tmp_path / "m.gseg"
    save_checkpoint(path, model, relation, embedding)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 9])
    with pytest.raises(CheckpointFormatError, match="truncated payload at byte"):
        load_checkpoint(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    model, relation, embedding = make_bundle()
    path = tmp_path / "m.gseg"
    save_checkpoint(path, model, relation, embedding)
    path.write_bytes(path.read_bytes() + b"\x00" * 4)
    with pytest.raises(CheckpointFormatError, match="4 trailing bytes"):
        load_checkpoint(path)


def raw_checkpoint(path, header, payload_floats):
    path.write_bytes(
        b"GSEG\x01" + np.asarray(header, dtype="<u4").tobytes()
        + np.zeros(payload_floats, dtype="<f8").tobytes()
    )


def test_checkpoint_rejects_zero_trunk_layers(tmp_path):
    # D=4, C=5, M=3, L=0, widths (4,), then a head, relation and blocks.
    path = tmp_path / "m.gseg"
    raw_checkpoint(path, [4, 5, 3, 0, 4], 4 * 5 + 5 + 15 * 5 + 5 * 4 * 3)
    with pytest.raises(CheckpointFormatError, match="zero dimension"):
        load_checkpoint(path)


def test_checkpoint_rejects_zero_classes(tmp_path):
    # D=4, C=0, M=3, L=1, widths (4, 4), then one trunk layer.
    path = tmp_path / "m.gseg"
    raw_checkpoint(path, [4, 0, 3, 1, 4, 4], 4 * 4 + 4)
    with pytest.raises(CheckpointFormatError, match="zero dimension"):
        load_checkpoint(path)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_checkpoint_rejects_a_non_finite_payload(bad, tmp_path):
    model, relation, embedding = make_bundle()
    path = tmp_path / "m.gseg"
    save_checkpoint(path, model, relation, embedding)
    data = bytearray(path.read_bytes())
    data[-8:] = np.float64(bad).tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointFormatError, match="non-finite"):
        load_checkpoint(path)


@pytest.mark.parametrize("which", ["model", "relation", "embedding"])
def test_save_checkpoint_refuses_non_finite_values(which, tmp_path):
    model, relation, embedding = make_bundle()
    arr = {"model": model.weights[0], "relation": relation.values,
           "embedding": embedding.blocks}[which]
    arr.flat[1] = math.inf
    path = tmp_path / "m.gseg"
    with pytest.raises(FloatingPointError, match="non-finite"):
        save_checkpoint(path, model, relation, embedding)
    assert not path.exists()


def _valid_checkpoint_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.gseg"
        save_checkpoint(path, *make_bundle(num_classes=3, widths=(3, 2), props=2))
        return path.read_bytes()


VALID_CHECKPOINT = _valid_checkpoint_bytes()
HEADER_END = 5 + 4 * (4 + 3)  # magic, version, D C M L, then three widths
U32 = st.one_of(st.integers(0, 8), st.integers(0, 2**32 - 1))


def truncated():
    return st.integers(0, len(VALID_CHECKPOINT) - 1).map(lambda k: VALID_CHECKPOINT[:k])


def corrupted():
    def flip(args):
        pos, byte = args
        data = bytearray(VALID_CHECKPOINT)
        data[pos] = byte
        return bytes(data)

    return st.tuples(st.integers(0, len(VALID_CHECKPOINT) - 1), st.integers(0, 255)).map(flip)


def random_header():
    return st.lists(U32, min_size=0, max_size=10).map(
        lambda header: VALID_CHECKPOINT[:5] + np.asarray(header, dtype="<u4").tobytes()
        + VALID_CHECKPOINT[HEADER_END:]
    )


@settings(max_examples=300, deadline=None)
@given(data=st.one_of(truncated(), corrupted(), random_header()))
def test_load_checkpoint_fuzz_loads_or_raises_format_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.gseg"
        path.write_bytes(data)
        try:
            model, relation, embedding = load_checkpoint(path)
        except CheckpointFormatError:
            return
    # Whatever loads is usable: finite arrays and a working forward pass.
    for arr in [*model.parameters(), relation.values, embedding.blocks]:
        assert np.all(np.isfinite(arr))
    assert predict_logits(model, np.zeros((2, model.in_dim))).shape == (2, model.num_classes)
