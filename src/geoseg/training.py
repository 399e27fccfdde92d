"""Training harness: step logic, loops, evaluation, and the ablation battery.

One train step follows a fixed order so that runs are bit-reproducible:

  1. standard augmentation per scene      (stream "std-aug", epoch, scene id)
  2. adverse compound augmentation        (stream "pags", epoch, scene id)
     of the originals, when a loss uses it
  3. the composite loss (composite_loss): forward on the originals,
     segmentation cross-entropy, relation logits + property loss, then
     the consistency loss on the adverse copy; only its rows that the
     augmentation changed and that a loss reads go through the network
  4. backward, SGD update of model and relation matrix
  5. momentum update of the per-class geometry blocks from reliable
     points: each class's plan is solved on the geometry of its reliable
     rows alone, computed from the step's pre-update features

Scenes of a batch are concatenated, so every loss is a mean over all
points of the batch jointly. The embedding blocks are built from
original (non-augmented) features and receive no gradients.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from geoseg.augment import (
    AugmentationConfig,
    compound_augment,
    rotate_z,
    standard_augment,
)
from geoseg.autodiff import (
    GradientTape,
    _row_reduce,
    masked_cross_entropy,
    merge_rows,
)
from geoseg.geometry_embedding import (
    EmbeddingMatrix,
    RelationMatrix,
    class_plan,
    class_update,
    embed,  # noqa: F401  (unused here; bench/tracing.py patches training.embed)
    embed_var,
    geometry_consistency_loss,
    geometry_property_loss,
    momentum_update,
    reliable_points,
)
from geoseg.metrics import MetricsReport, confusion_matrix
from geoseg.network import (
    BoundModel,
    PointNetLite,
    predict_logits,
    sgd_step,
    softmax,
)
from geoseg.scenes import IGNORE_ID, ClassTable, LabelSet, PointCloud, Scene
from geoseg.sinkhorn import SinkhornConfig
from geoseg.streams import substream
from geoseg.synthetic import SynthConfig, make_split

TTA_ROTATIONS_DEG = (0.0, 90.0, 180.0, 270.0)
TTA_SCALES = (0.95, 1.0, 1.05)


@dataclass(frozen=True)
class TrainConfig:
    """Training configuration. The transport solver's and the adverse
    augmentation's settings are held in their own configs, which validate
    themselves."""

    epochs: int = 30
    batch_size: int = 4
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 1e-4
    widths: tuple[int, ...] = (64, 64, 32)
    geom_props: int = 8
    epsilon: float = 0.9999
    sinkhorn: SinkhornConfig = SinkhornConfig()
    lambda1: float = 1.0
    lambda2: float = 1.0
    seg_on_augmented: bool = False
    augmentation: AugmentationConfig = AugmentationConfig()
    seed: int = 0

    def __post_init__(self):
        if not self.widths or min(self.widths) < 1:
            raise ValueError(f"widths must be non-empty and positive, got {self.widths}")
        for name in ("epochs", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("batch_size", "geom_props"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        for name in ("momentum", "weight_decay", "lambda1", "lambda2"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")

    @property
    def uses_adverse(self) -> bool:
        """Whether a loss term reads the adversely augmented copy."""
        return self.lambda2 > 0 or self.seg_on_augmented


@dataclass
class TrainState:
    """What training updates; velocities are the SGD momentum buffers of
    model.parameters() + [relation.values], in that order."""

    model: PointNetLite
    embedding: EmbeddingMatrix
    relation: RelationMatrix
    velocities: list[np.ndarray]
    table: ClassTable
    step_count: int = 0


@dataclass
class StepLosses:
    """Loss values of one step; NaN marks a component that had no valid points."""

    seg: float
    gpl: float
    gcl: float
    total: float
    skipped: bool = False


def init_state(cfg: TrainConfig, table: ClassTable) -> TrainState:
    model = PointNetLite.create(
        table.num_classes, cfg.widths, rng=substream(cfg.seed, "init-model")
    )
    embedding = EmbeddingMatrix.initial(
        table.num_classes,
        model.feature_dim,
        cfg.geom_props,
        rng=substream(cfg.seed, "init-embedding"),
    )
    relation = RelationMatrix.initial(
        table.num_classes, cfg.geom_props, rng=substream(cfg.seed, "init-relation")
    )
    velocities = [np.zeros_like(p) for p in model.parameters() + [relation.values]]
    return TrainState(model, embedding, relation, velocities, table)


def _concat(scenes: list[Scene]) -> tuple[np.ndarray, LabelSet]:
    if scenes:
        points = np.concatenate([s.cloud.points for s in scenes], axis=0)
        labels = np.concatenate([s.labels.labels for s in scenes])
    else:
        points = np.empty((0, 4))
        labels = np.empty(0, dtype=np.uint16)
    return points, LabelSet(labels)


@dataclass
class CompositeLoss:
    """One step's objective: its loss values, the clean pass's features and
    logits, and backward, which returns the gradients of losses.total with
    respect to model.parameters() + [relation.values], in that order, and
    may be called once."""

    losses: StepLosses
    features: np.ndarray
    logits: np.ndarray
    backward: Callable[[], list[np.ndarray]]


def composite_loss(
    model: PointNetLite,
    relation: RelationMatrix,
    embedding: EmbeddingMatrix,
    batch: tuple[np.ndarray, LabelSet],
    adverse: tuple[np.ndarray, LabelSet] | None,
    cfg: TrainConfig,
) -> CompositeLoss:
    """Segmentation loss, plus lambda1 x property loss, plus on the adverse
    batch (required when cfg.uses_adverse) lambda2 x consistency loss and,
    with seg_on_augmented, its segmentation loss.

    A term is built only when its gate is on; a term without valid points
    is left out and reads NaN in losses, and losses.skipped is set when
    every term is. The total adds the weighted terms as plain floats, left
    to right in the order seg, seg_aug, gpl, gcl; backward seeds each
    term's gradient with its weight.

    Adverse row i must be made from clean row i (ValueError if the shapes
    differ). The adverse losses read only rows not labeled IGNORE_ID; of
    those, a row equal to its clean row reuses the clean pass's features
    and logits, and only the rest go through the network again. The
    values equal, bit for bit, those of a forward pass over the whole
    adverse batch, unless exactly one row is fresh: numpy multiplies a
    single row as a vector, whose sums may round differently.
    """
    tape = GradientTape()
    bound = BoundModel(model, tape)
    relation_var = tape.leaf(relation.values)
    points, labels = batch
    features, logits = bound.forward(points)
    seg = masked_cross_entropy(logits, labels.labels)
    gpl = gcl = seg_aug = None
    if cfg.lambda1 > 0:
        gpl = geometry_property_loss(embed_var(features, embedding, relation_var), labels)
    if cfg.uses_adverse:
        points_aug, labels_aug = adverse
        if points_aug.shape != points.shape:
            raise ValueError(
                f"adverse points {points_aug.shape} do not align with points {points.shape}"
            )
        valid = np.nonzero(labels_aug.labels != IGNORE_ID)[0]
        if valid.size:
            shared = _row_reduce(np.logical_and, points_aug == points)[valid]
            fresh = valid[~shared]
            fresh_vars = bound.forward(points_aug[fresh]) if fresh.size else (None, None)
            labels_valid = LabelSet(labels_aug.labels[valid])
            if cfg.lambda2 > 0:
                features_aug = merge_rows(features, valid[shared], fresh_vars[0], shared)
                gcl = geometry_consistency_loss(
                    features_aug, embedding, relation_var, labels_valid
                )
            if cfg.seg_on_augmented:
                logits_aug = merge_rows(logits, valid[shared], fresh_vars[1], shared)
                seg_aug = masked_cross_entropy(logits_aug, labels_valid.labels)
    terms = [(seg, 1.0), (seg_aug, 1.0), (gpl, cfg.lambda1), (gcl, cfg.lambda2)]
    terms = [(v, w) for v, w in terms if v is not None]
    parts = [w * float(v.value) for v, w in terms]
    total = sum(parts[1:], parts[0]) if parts else math.nan
    values = (math.nan if v is None else float(v.value) for v in (seg, gpl, gcl))
    losses = StepLosses(*values, total, skipped=not terms)

    def backward() -> list[np.ndarray]:
        tape.backward(terms)
        return bound.gradients() + [relation_var.grad]

    return CompositeLoss(losses, features.value, logits.value, backward)


def train_step(
    state: TrainState, batch: list[Scene], cfg: TrainConfig, epoch: int
) -> StepLosses:
    """One optimization step over a batch of scenes; raises FloatingPointError
    before any update if the total loss is not finite."""
    originals = [
        standard_augment(s, substream(cfg.seed, "std-aug", epoch, s.id)) for s in batch
    ]
    points, labels = _concat(originals)
    adverse = None
    if cfg.uses_adverse:
        adverse = _concat([
            compound_augment(
                s, state.table, cfg.augmentation, substream(cfg.seed, "pags", epoch, s.id)
            )[0]
            for s in originals
        ])

    loss = composite_loss(
        state.model, state.relation, state.embedding, (points, labels), adverse, cfg
    )
    losses = loss.losses
    if losses.skipped:
        state.step_count += 1
        return losses
    if not math.isfinite(losses.total):
        raise FloatingPointError(
            f"non-finite total loss {losses.total} at step {state.step_count}"
        )
    params = state.model.parameters() + [state.relation.values]
    sgd_step(params, loss.backward(), state.velocities, cfg)

    if cfg.lambda1 > 0 or cfg.lambda2 > 0:
        features = loss.features
        predictions = np.argmax(loss.logits, axis=1)
        raw = labels.labels
        updates = {}
        for class_id in np.unique(raw[raw != IGNORE_ID]):
            class_id = int(class_id)
            if state.step_count == 0:
                # No trustworthy predictions yet; every labeled point counts.
                rel = np.nonzero(raw == class_id)[0]
            else:
                rel = reliable_points(labels, predictions, class_id)
            if rel.size:
                plan = class_plan(features, state.embedding, class_id, rel, cfg.sinkhorn)
                updates[class_id] = class_update(features, plan, rel)
        if updates:
            momentum_update(state.embedding, updates, cfg.epsilon)

    state.step_count += 1
    return losses


@dataclass
class TrainResult:
    state: TrainState
    epoch_losses: list[dict[str, float]]
    step_losses: list[StepLosses]

    @property
    def epoch_totals(self) -> list[float]:
        return [e["total"] for e in self.epoch_losses]


def _component_mean(values: list[float]) -> float:
    finite = [v for v in values if not math.isnan(v)]
    return float(np.mean(finite)) if finite else math.nan


def train(
    cfg: TrainConfig,
    scenes: list[Scene],
    table: ClassTable,
    progress=None,
) -> TrainResult:
    """Train a fresh state on the given scenes; progress(epoch, losses) if given.

    With epochs == 0 this returns the initial state, and scenes may be empty."""
    if cfg.epochs > 0 and not scenes:
        raise ValueError("no training scenes")
    state = init_state(cfg, table)
    epoch_losses: list[dict[str, float]] = []
    step_losses: list[StepLosses] = []
    for epoch in range(cfg.epochs):
        order = substream(cfg.seed, "order", epoch).permutation(len(scenes))
        epoch_steps: list[StepLosses] = []
        for start in range(0, len(scenes), cfg.batch_size):
            batch = [scenes[i] for i in order[start : start + cfg.batch_size]]
            sl = train_step(state, batch, cfg, epoch)
            epoch_steps.append(sl)
        summary = {
            "seg": _component_mean([s.seg for s in epoch_steps]),
            "gpl": _component_mean([s.gpl for s in epoch_steps]),
            "gcl": _component_mean([s.gcl for s in epoch_steps]),
            "total": _component_mean([s.total for s in epoch_steps]),
        }
        epoch_losses.append(summary)
        step_losses.extend(epoch_steps)
        if progress is not None:
            progress(epoch, summary)
    return TrainResult(state, epoch_losses, step_losses)


def tta_predict(model: PointNetLite, cloud: PointCloud) -> np.ndarray:
    """Mean softmax probabilities over the TTA_ROTATIONS_DEG x TTA_SCALES grid."""
    total = None
    for deg in TTA_ROTATIONS_DEG:
        rotated = rotate_z(cloud.points, math.radians(deg))
        for s in TTA_SCALES:
            pts = rotated.copy()
            pts[:, :3] *= s
            probs = softmax(predict_logits(model, pts))
            if total is None:
                total = probs
            else:
                total += probs
    return total / (len(TTA_ROTATIONS_DEG) * len(TTA_SCALES))


def evaluate(
    model: PointNetLite, scenes: list[Scene], table: ClassTable, tta: bool = False
) -> MetricsReport:
    """Confusion-matrix evaluation over scenes, optionally with test-time
    augmentation; raises ValueError on an empty scene list and
    FloatingPointError if a scene's logits (or TTA probabilities) are not
    finite."""
    if not scenes:
        raise ValueError("no scenes to evaluate")
    c = table.num_classes
    conf = np.zeros((c, c), dtype=np.int64)
    for scene in scenes:
        if tta:
            scores = tta_predict(model, scene.cloud)
        else:
            scores = predict_logits(model, scene.cloud.points)
        if not np.all(np.isfinite(scores)):
            kind = "TTA probabilities" if tta else "logits"
            raise FloatingPointError(f"non-finite {kind} on scene {scene.id}")
        preds = np.argmax(scores, axis=1)
        conf += confusion_matrix(scene.labels.labels, preds, c)
    return MetricsReport.from_confusion(conf)


VARIANTS = ("baseline", "cge", "full")


def ablation_base_config() -> TrainConfig:
    """The training settings the ablation battery starts from: the defaults."""
    # Kept only because bench/harness.py and bench/test_bench.py call it;
    # ROADMAP item 4's bench/ change removes it.
    return TrainConfig()


def variant_config(cfg: TrainConfig, variant: str) -> TrainConfig:
    """baseline: segmentation loss only; cge: adds the property loss;
    full: adds adverse augmentation with the consistency loss."""
    if variant == "baseline":
        return replace(cfg, lambda1=0.0, lambda2=0.0)
    if variant == "cge":
        return replace(cfg, lambda2=0.0)
    if variant == "full":
        return cfg
    raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")


@dataclass
class AblationRun:
    variant: str
    seed: int
    miou: float
    tta_miou: float
    epoch_totals: list[float]


@dataclass
class AblationResult:
    runs: list[AblationRun]

    def mean_miou(self, variant: str, tta: bool = False) -> float:
        vals = [
            (r.tta_miou if tta else r.miou) for r in self.runs if r.variant == variant
        ]
        return float(np.mean(vals)) if vals else math.nan

    def table_lines(self) -> list[str]:
        """Structured text summary, one `name = value` per line."""
        out = []
        for variant in VARIANTS:
            for r in self.runs:
                if r.variant == variant:
                    out.append(f"miou_{variant}_seed{r.seed} = {r.miou:.6f}")
            out.append(f"miou_{variant}_mean = {self.mean_miou(variant):.6f}")
            out.append(f"miou_{variant}_tta_mean = {self.mean_miou(variant, tta=True):.6f}")
        return out


def run_ablation(
    base_cfg: TrainConfig,
    synth_cfg: SynthConfig,
    seeds: tuple[int, ...],
    n_train: int,
    n_test: int,
    progress=None,
) -> AblationResult:
    """Train the component ladder per seed on a shared shifted split.

    The test split is shifted at synth_cfg.shift_severity. Every variant
    of a seed sees identical data and identical named RNG substreams; the
    variants differ only in which losses are active. Each run takes
    base_cfg and synth_cfg with their seed set from seeds; their own seed
    fields are not read. Empty, repeated or negative seeds, or fewer than
    one train or test scene, raise ValueError before anything is trained.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"seeds must be distinct, got {seeds}")
    if min(seeds) < 0:
        raise ValueError(f"seeds must be >= 0, got {seeds}")
    for name, count in (("n_train", n_train), ("n_test", n_test)):
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count}")
    runs: list[AblationRun] = []
    for seed in seeds:
        scfg = replace(synth_cfg, seed=seed)
        train_scenes, test_scenes = make_split(scfg, n_train, n_test)
        for variant in VARIANTS:
            cfg = variant_config(replace(base_cfg, seed=seed), variant)
            result = train(cfg, train_scenes, scfg.classes)
            miou = evaluate(result.state.model, test_scenes, scfg.classes).miou
            tta_miou = evaluate(result.state.model, test_scenes, scfg.classes, tta=True).miou
            runs.append(AblationRun(variant, seed, miou, tta_miou, result.epoch_totals))
            if progress is not None:
                progress(runs[-1])
    return AblationResult(runs)
