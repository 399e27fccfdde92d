import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from geoseg import training
from geoseg.augment import AugmentationConfig, standard_augment
from geoseg.autodiff import GradientTape, Var, masked_cross_entropy, weighted_sum
from geoseg.geometry_embedding import (
    embed_var,
    geometry_consistency_loss,
    geometry_property_loss,
)
from geoseg.network import (
    BoundModel,
    forward_arrays,
    predict_logits,
    sgd_step,
    softmax,
)
from geoseg.scenes import IGNORE_ID, LabelSet, PointCloud, Scene
from geoseg.sinkhorn import SinkhornConfig
from geoseg.streams import substream
from geoseg.synthetic import SynthConfig, default_class_table, make_split
from geoseg.training import (
    TTA_ROTATIONS_DEG,
    TTA_SCALES,
    AblationResult,
    AblationRun,
    TrainConfig,
    ablation_base_config,
    evaluate,
    init_state,
    run_ablation,
    train,
    train_step,
    tta_predict,
    variant_config,
)

TABLE = default_class_table()


def tiny_cfg(**kwargs) -> TrainConfig:
    base = dict(epochs=2, batch_size=2, lr=0.05, widths=(8, 6), geom_props=3,
                sinkhorn_iters=30, seed=0)
    base.update(kwargs)
    return TrainConfig(**base)


def tiny_scenes(n_scenes=4, points=60, seed=0):
    cfg = SynthConfig(points_per_scene=points, seed=seed)
    train_scenes, _ = make_split(cfg, n_scenes, 0)
    return train_scenes


def test_config_builders_map_fields():
    cfg = tiny_cfg(beta1=0.7, sigma=0.3, sinkhorn_iters=11, sinkhorn_tol=1e-6)
    aug = cfg.augmentation()
    assert aug.beta1 == 0.7
    sink = cfg.sinkhorn()
    assert (sink.sigma, sink.max_iters, sink.tol) == (0.3, 11, 1e-6)
    assert TrainConfig().augmentation() == AugmentationConfig()
    assert TrainConfig().sinkhorn() == SinkhornConfig()


def test_init_state_is_deterministic_per_seed():
    a = init_state(tiny_cfg(), TABLE)
    b = init_state(tiny_cfg(), TABLE)
    for pa, pb in zip(a.model.parameters(), b.model.parameters()):
        assert pa.tobytes() == pb.tobytes()
    assert a.embedding.blocks.tobytes() == b.embedding.blocks.tobytes()
    assert a.relation.values.tobytes() == b.relation.values.tobytes()
    c = init_state(tiny_cfg(seed=1), TABLE)
    assert a.model.head_weight.tobytes() != c.model.head_weight.tobytes()


def test_degenerate_step_equals_plain_cross_entropy_training():
    """lambda1 = lambda2 = 0 with the adverse gates closed must reproduce a
    hand-written augment/forward/backward/update loop bit for bit."""
    cfg = tiny_cfg(lambda1=0.0, lambda2=0.0, beta1=0.0, beta2=0.0)
    scenes = tiny_scenes(2)

    state = init_state(cfg, TABLE)
    reference = init_state(cfg, TABLE)

    train_step(state, scenes, cfg, epoch=0)

    aug = [
        standard_augment(s, substream(cfg.seed, "std-aug", 0, s.id)) for s in scenes
    ]
    points = np.concatenate([s.cloud.points for s in aug])
    labels = LabelSet(np.concatenate([s.labels.labels for s in aug]))
    tape = GradientTape()
    bound = BoundModel(reference.model, tape)
    _, logits = bound.forward(points)
    loss = masked_cross_entropy(logits, labels.labels)
    tape.backward(loss)
    relation_grad = np.zeros_like(reference.relation.values)
    sgd_step(
        reference.model.parameters() + [reference.relation.values],
        bound.gradients() + [relation_grad],
        reference.velocities,
        cfg,
    )

    for got, want in zip(state.model.parameters(), reference.model.parameters()):
        assert_array_equal(got, want)
    assert_array_equal(state.relation.values, reference.relation.values)


def test_step_with_geometry_updates_blocks_and_counts():
    cfg = tiny_cfg()
    scenes = tiny_scenes(2)
    state = init_state(cfg, TABLE)
    before = state.embedding.blocks.copy()
    losses = train_step(state, scenes, cfg, epoch=0)
    assert state.step_count == 1
    assert not losses.skipped
    assert not math.isnan(losses.seg)
    assert not math.isnan(losses.gpl)
    assert not math.isnan(losses.gcl)
    assert losses.total == pytest.approx(losses.seg + losses.gpl + losses.gcl, rel=1e-12)
    assert np.any(state.embedding.blocks != before)


def test_epsilon_one_freezes_blocks_through_training():
    cfg = tiny_cfg(epsilon=1.0)
    scenes = tiny_scenes(3)
    state = init_state(cfg, TABLE)
    frozen = state.embedding.blocks.tobytes()
    for epoch in range(2):
        train_step(state, scenes, cfg, epoch)
    assert state.embedding.blocks.tobytes() == frozen


def test_all_ignored_batch_is_skipped_and_counted():
    cfg = tiny_cfg(lambda1=0.0, lambda2=0.0, beta1=0.0, beta2=0.0)
    pts = np.column_stack([np.eye(3), np.full(3, 0.5)])
    scene = Scene(
        PointCloud(pts), LabelSet(np.full(3, IGNORE_ID, dtype=np.uint16)), "ignored"
    )
    state = init_state(cfg, TABLE)
    before = [p.copy() for p in state.model.parameters()]
    losses = train_step(state, [scene], cfg, epoch=0)
    assert losses.skipped
    for got, want in zip(state.model.parameters(), before):
        assert_array_equal(got, want)


def test_train_loss_sequence_is_bit_reproducible():
    cfg = tiny_cfg(epochs=3)
    scenes = tiny_scenes(4)
    a = train(cfg, scenes, TABLE)
    b = train(cfg, scenes, TABLE)
    assert [s.total for s in a.step_losses] == [s.total for s in b.step_losses]
    assert a.epoch_totals == b.epoch_totals
    for pa, pb in zip(a.state.model.parameters(), b.state.model.parameters()):
        assert pa.tobytes() == pb.tobytes()


def test_train_requires_scenes():
    with pytest.raises(ValueError, match="no training scenes"):
        train(tiny_cfg(), [], TABLE)


def test_train_zero_epochs_returns_initial_state():
    scenes = tiny_scenes(2)
    result = train(tiny_cfg(epochs=0), scenes, TABLE)
    fresh = init_state(tiny_cfg(epochs=0), TABLE)
    for got, want in zip(result.state.model.parameters(), fresh.model.parameters()):
        assert_array_equal(got, want)
    assert result.epoch_losses == []
    assert train(tiny_cfg(epochs=0), [], TABLE).epoch_losses == []


def test_progress_callback_sees_every_epoch():
    seen = []
    train(tiny_cfg(epochs=2), tiny_scenes(2), TABLE, progress=lambda e, s: seen.append(e))
    assert seen == [0, 1]


# ------------------------------------------------------- adverse rows


def adverse_batch(kind: str):
    """A clean batch and an adverse copy made from it row by row.

    "mixed" moves every third row, masks the label of the next and keeps
    the rest; "shared" keeps every row and "masked" masks every label.
    """
    points, labels = training._concat(tiny_scenes(2))
    points_aug = points.copy()
    raw = labels.labels.copy()
    if kind == "mixed":
        points_aug[0::3, :3] += 0.5
        raw[1::3] = IGNORE_ID
    elif kind == "masked":
        raw[:] = IGNORE_ID
    return (points, labels), (points_aug, LabelSet(raw))


def full_pass_terms(state, batch, adverse, cfg) -> dict[str, Var | None]:
    """The composite loss's terms with forward_arrays over every adverse row."""
    tape = GradientTape()
    relation = tape.leaf(state.relation.values)

    def forward(points):
        acts = forward_arrays(state.model, points)
        return Var(acts[-2], tape), Var(acts[-1], tape)

    (points, labels), (points_aug, labels_aug) = batch, adverse
    features, logits = forward(points)
    features_aug, logits_aug = forward(points_aug)
    terms = {
        "seg": masked_cross_entropy(logits, labels.labels),
        "gpl": geometry_property_loss(
            embed_var(features, state.embedding, relation), labels
        ),
        "gcl": geometry_consistency_loss(features_aug, state.embedding, relation, labels_aug),
        "seg_aug": masked_cross_entropy(logits_aug, labels_aug.labels),
    }
    weights = {"seg": 1.0, "seg_aug": float(cfg.seg_on_augmented), "gpl": cfg.lambda1,
               "gcl": cfg.lambda2}
    parts = [(terms[k], weights[k]) for k in ("seg", "seg_aug", "gpl", "gcl")]
    terms["total"] = weighted_sum([(v, w) for v, w in parts if v is not None and w > 0])
    return terms


@pytest.mark.parametrize("kind", ["mixed", "shared", "masked"])
def test_adverse_terms_equal_a_pass_over_every_adverse_row(kind, monkeypatch):
    cfg = tiny_cfg(seg_on_augmented=True)
    state = init_state(cfg, TABLE)
    batch, adverse = adverse_batch(kind)
    # Record the rows each network pass reads, and the adverse seg term,
    # which CompositeLoss does not keep.
    rows, seg_terms = [], []
    forward = BoundModel.forward
    monkeypatch.setattr(BoundModel, "forward",
                        lambda self, pts: rows.append(len(pts)) or forward(self, pts))
    monkeypatch.setattr(training, "masked_cross_entropy",
                        lambda *a: seg_terms.append(masked_cross_entropy(*a)) or seg_terms[-1])
    loss = training.composite_loss(
        state.model, state.relation, state.embedding, batch, adverse, cfg
    )
    got = {"seg": loss.seg, "gpl": loss.gpl, "gcl": loss.gcl, "total": loss.total,
           "seg_aug": seg_terms[1] if len(seg_terms) > 1 else None}
    want = full_pass_terms(state, batch, adverse, cfg)
    assert {k: v and float(v.value).hex() for k, v in got.items()} == \
        {k: v and float(v.value).hex() for k, v in want.items()}

    n = batch[0].shape[0]
    valid = adverse[1].labels != IGNORE_ID
    changed = np.any(adverse[0] != batch[0], axis=1)
    fresh = int(np.sum(valid & changed))
    assert rows == ([n, fresh] if fresh else [n])
    assert (fresh >= 2) == (kind == "mixed")
    assert (loss.gcl is None) == (kind == "masked")
    *_, relation_grad = loss.backward()
    assert np.all(np.isfinite(relation_grad))


def test_a_step_whose_adverse_labels_are_all_masked_still_runs(monkeypatch):
    cfg = tiny_cfg()
    compound = training.compound_augment

    def mask_all(scene, *args):
        out, report = compound(scene, *args)
        ignored = LabelSet(np.full(out.labels.n, IGNORE_ID, dtype=np.uint16))
        return Scene(out.cloud, ignored, out.id), report

    monkeypatch.setattr(training, "compound_augment", mask_all)
    state = init_state(cfg, TABLE)
    losses = train_step(state, tiny_scenes(2), cfg, epoch=0)
    assert not losses.skipped and math.isnan(losses.gcl)
    assert losses.total == losses.seg + losses.gpl
    assert state.step_count == 1


def test_composite_loss_rejects_an_adverse_batch_that_does_not_align():
    cfg = tiny_cfg()
    state = init_state(cfg, TABLE)
    (points, labels), _ = adverse_batch("shared")
    short = (points[:-1], LabelSet(labels.labels[:-1]))
    with pytest.raises(ValueError, match="do not align"):
        training.composite_loss(
            state.model, state.relation, state.embedding, (points, labels), short, cfg
        )


# ------------------------------------------------------------------ inference


def test_tta_default_grid_matches_explicit_loop():
    from geoseg.augment import rotate_z

    scenes = tiny_scenes(1)
    state = init_state(tiny_cfg(), TABLE)
    cloud = scenes[0].cloud
    total = np.zeros((cloud.n, TABLE.num_classes))
    for deg in TTA_ROTATIONS_DEG:
        for s in TTA_SCALES:
            pts = rotate_z(cloud.points, math.radians(deg))
            pts[:, :3] *= s
            total += softmax(predict_logits(state.model, pts))
    expected = total / (len(TTA_ROTATIONS_DEG) * len(TTA_SCALES))
    assert_allclose(tta_predict(state.model, cloud), expected, atol=1e-12)


def test_evaluate_matches_manual_confusion():
    from geoseg.metrics import MetricsReport, confusion_matrix

    scenes = tiny_scenes(3)
    state = init_state(tiny_cfg(), TABLE)
    report = evaluate(state.model, scenes, TABLE)
    conf = np.zeros((6, 6), dtype=np.int64)
    for scene in scenes:
        preds = np.argmax(predict_logits(state.model, scene.cloud.points), axis=1)
        conf += confusion_matrix(scene.labels.labels, preds, 6)
    expected = MetricsReport.from_confusion(conf)
    assert_array_equal(report.confusion, expected.confusion)
    assert report.miou == expected.miou


@pytest.mark.parametrize("tta", [False, True])
def test_evaluate_raises_on_non_finite_scores(tta):
    # A finite model whose head overflows: every load check passes it.
    # Saturated features (tanh(10) ~ 1) make every logit sum past 1.8e308.
    model = init_state(tiny_cfg(), TABLE).model
    model.biases[-1][:] = 10.0
    model.head_weight[:] = 1e308
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match="non-finite"):
            evaluate(model, tiny_scenes(2), TABLE, tta=tta)


# ------------------------------------------------------------------- ablation


def test_evaluate_rejects_an_empty_scene_list():
    model = init_state(tiny_cfg(), TABLE).model
    for tta in (False, True):
        with pytest.raises(ValueError, match="no scenes"):
            evaluate(model, [], TABLE, tta=tta)


def test_variant_config_ladder():
    cfg = tiny_cfg(lambda1=1.0, lambda2=1.0)
    assert variant_config(cfg, "baseline").lambda1 == 0.0
    assert variant_config(cfg, "baseline").lambda2 == 0.0
    assert variant_config(cfg, "cge").lambda1 == 1.0
    assert variant_config(cfg, "cge").lambda2 == 0.0
    assert variant_config(cfg, "full") == cfg
    with pytest.raises(ValueError, match="unknown variant"):
        variant_config(cfg, "bogus")


def test_ablation_base_config_is_the_defaults():
    assert ablation_base_config() == TrainConfig()


def test_run_ablation_structure_and_means():
    cfg = tiny_cfg(epochs=1)
    synth = SynthConfig(points_per_scene=60, shift_severity=1.0)
    result = run_ablation(
        base_cfg=cfg,
        synth_cfg=synth,
        seeds=(0, 1),
        n_train=2,
        n_test=1,
    )
    assert len(result.runs) == 6
    assert {r.seed for r in result.runs} == {0, 1}
    by_variant = {v: [r for r in result.runs if r.variant == v] for v in ("baseline", "full")}
    for runs in by_variant.values():
        assert [r.seed for r in runs] == [0, 1]
        for r in runs:
            assert len(r.epoch_totals) == 1
    mean = result.mean_miou("baseline")
    assert mean == pytest.approx(
        np.mean([r.miou for r in by_variant["baseline"]]), abs=1e-12
    )
    lines = result.table_lines()
    assert any(line.startswith("miou_baseline_mean = ") for line in lines)
    assert any(line.startswith("miou_full_seed1 = ") for line in lines)


@pytest.mark.parametrize("kwargs, match", [
    (dict(n_test=0), "n_test must be >= 1"),
    (dict(n_test=-1), "n_test must be >= 1"),
    (dict(n_train=0), "n_train must be >= 1"),
    (dict(seeds=()), "at least one seed"),
    (dict(seeds=(0, 0, 1)), "seeds must be distinct"),
], ids=["n_test=0", "n_test=-1", "n_train=0", "no-seeds", "repeated-seeds"])
def test_run_ablation_rejects_an_empty_battery_before_training(kwargs, match, monkeypatch):
    def no_training(*args, **kw):
        raise AssertionError("trained before the arguments were checked")

    monkeypatch.setattr(training, "train", no_training)
    args = dict(base_cfg=tiny_cfg(epochs=1), synth_cfg=SynthConfig(points_per_scene=60),
                seeds=(0,), n_train=2, n_test=1)
    args.update(kwargs)
    with pytest.raises(ValueError, match=match):
        run_ablation(**args)


class _SplitMade(Exception):
    pass


@pytest.mark.parametrize("synth_cfg, severity", [
    (SynthConfig(points_per_scene=60, shift_severity=0.7), 0.7),
    (None, 1.5),
], ids=["given", "default"])
def test_run_ablation_shifts_the_test_split_at_the_synth_config_severity(
    synth_cfg, severity, monkeypatch
):
    seen = []

    def record_split(cfg, n_train, n_test):
        seen.append(cfg)
        raise _SplitMade

    monkeypatch.setattr(training, "make_split", record_split)
    with pytest.raises(_SplitMade):
        run_ablation(base_cfg=tiny_cfg(epochs=1), synth_cfg=synth_cfg, seeds=(3,))
    assert [(cfg.shift_severity, cfg.seed) for cfg in seen] == [(severity, 3)]


def test_ablation_result_mean_with_tta_flag():
    runs = [
        AblationRun("full", 0, 0.5, 0.6, [1.0]),
        AblationRun("full", 1, 0.3, 0.4, [1.0]),
    ]
    result = AblationResult(runs)
    assert result.mean_miou("full") == pytest.approx(0.4)
    assert result.mean_miou("full", tta=True) == pytest.approx(0.5)
