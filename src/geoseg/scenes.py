"""Scene containers and binary point/label file IO.

In memory, points are read-only (N, 4) float64 arrays in x, y, z,
intensity column order. On disk a point file is a flat sequence of
little-endian float32 quadruples, and a label file holds one
little-endian uint32 per point whose low 16 bits carry the semantic id.
A dataset directory pairs `<root>/velodyne/<stem>.bin` with
`<root>/labels/<stem>.label` by file stem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

IGNORE_ID = 0xFFFF

POINT_RECORD_BYTES = 16
LABEL_RECORD_BYTES = 4

POINT_DIR = "velodyne"
LABEL_DIR = "labels"


class SceneFormatError(ValueError):
    """An on-disk point or label file violates the binary format."""


def _frozen(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PointCloud:
    """Point set with per-point intensity.

    points: (N, 4) float64, columns x, y, z, intensity. The array is
    copied and marked read-only; mutations always go through new clouds.
    """

    points: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.points, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 4:
            raise ValueError(f"points must have shape (N, 4), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            bad = int(np.argwhere(~np.isfinite(arr))[0, 0])
            raise ValueError(f"non-finite coordinate or intensity at point {bad}")
        object.__setattr__(self, "points", _frozen(arr, np.float64))

    @property
    def n(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class LabelSet:
    """Per-point semantic ids; IGNORE_ID marks points excluded from losses and metrics."""

    labels: np.ndarray
    # Not a field: every label set shares IGNORE_ID. bench/ reads labels.ignore_id.
    ignore_id: ClassVar[int] = IGNORE_ID

    def __post_init__(self):
        arr = np.asarray(self.labels)
        if arr.ndim != 1:
            raise ValueError(f"labels must be 1-D, got shape {arr.shape}")
        if arr.size and (int(arr.min()) < 0 or int(arr.max()) > 0xFFFF):
            raise ValueError("label ids must fit in 16 bits")
        object.__setattr__(self, "labels", _frozen(arr, np.uint16))

    @property
    def n(self) -> int:
        return self.labels.shape[0]


@dataclass(frozen=True)
class ClassTable:
    """Class names plus the subset of ids on which matter can accumulate."""

    names: tuple[str, ...]
    accumulable: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "accumulable", frozenset(self.accumulable))
        if not self.names:
            raise ValueError("class table needs at least one class")
        if len(self.names) >= IGNORE_ID:
            raise ValueError("too many classes for 16-bit ids")
        bad = [c for c in self.accumulable if not 0 <= c < len(self.names)]
        if bad:
            raise ValueError(f"accumulable ids out of range: {sorted(bad)}")

    @property
    def num_classes(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class Scene:
    """A point cloud with aligned labels and a stable identifier."""

    cloud: PointCloud
    labels: LabelSet
    id: str

    def __post_init__(self):
        if self.cloud.n != self.labels.n:
            raise ValueError(
                f"scene {self.id!r}: {self.cloud.n} points but {self.labels.n} labels"
            )


def read_point_bin(path: str | Path) -> PointCloud:
    """Parse a float32 x, y, z, intensity file; intensity is clamped to [0, 1]."""
    path = Path(path)
    data = path.read_bytes()
    if len(data) % POINT_RECORD_BYTES:
        whole = len(data) - len(data) % POINT_RECORD_BYTES
        raise SceneFormatError(
            f"{path}: length {len(data)} is not a multiple of {POINT_RECORD_BYTES}; "
            f"complete records end at byte {whole}"
        )
    raw = np.frombuffer(data, dtype="<f4").reshape(-1, 4).astype(np.float64)
    finite = np.isfinite(raw)
    if not finite.all():
        idx = int(np.argwhere(~finite)[0, 0])
        raise SceneFormatError(f"{path}: non-finite value at point {idx}")
    raw[:, 3] = np.clip(raw[:, 3], 0.0, 1.0)
    return PointCloud(raw)


def write_point_bin(cloud: PointCloud, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(cloud.points.astype("<f4").tobytes())


def read_label_file(path: str | Path, table: ClassTable) -> LabelSet:
    """Parse a uint32 label file; ids outside the table map to IGNORE_ID."""
    path = Path(path)
    data = path.read_bytes()
    if len(data) % LABEL_RECORD_BYTES:
        whole = len(data) - len(data) % LABEL_RECORD_BYTES
        raise SceneFormatError(
            f"{path}: length {len(data)} is not a multiple of {LABEL_RECORD_BYTES}; "
            f"complete records end at byte {whole}"
        )
    raw = np.frombuffer(data, dtype="<u4")
    sem = (raw & 0xFFFF).astype(np.uint16)
    sem = np.where(sem < table.num_classes, sem, np.uint16(IGNORE_ID))
    return LabelSet(sem)


def write_label_file(labels: LabelSet, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(labels.labels.astype("<u4").tobytes())


def point_path(root: str | Path, stem: str) -> Path:
    return Path(root) / POINT_DIR / f"{stem}.bin"


def label_path(root: str | Path, stem: str) -> Path:
    return Path(root) / LABEL_DIR / f"{stem}.label"


def list_stems(root: str | Path) -> list[str]:
    """Sorted stems present in both the point and the label directory."""
    root = Path(root)
    pts = {p.stem for p in (root / POINT_DIR).glob("*.bin")}
    lbl = {p.stem for p in (root / LABEL_DIR).glob("*.label")}
    return sorted(pts & lbl)


def read_scene(root: str | Path, stem: str, table: ClassTable) -> Scene:
    cloud = read_point_bin(point_path(root, stem))
    labels = read_label_file(label_path(root, stem), table)
    if cloud.n != labels.n:
        raise SceneFormatError(
            f"{stem}: {cloud.n} points but {labels.n} labels under {root}"
        )
    return Scene(cloud, labels, stem)


def write_scene(root: str | Path, scene: Scene) -> None:
    write_point_bin(scene.cloud, point_path(root, scene.id))
    write_label_file(scene.labels, label_path(root, scene.id))
