import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoseg.scenes import (
    IGNORE_ID,
    ClassTable,
    LabelSet,
    PointCloud,
    Scene,
    SceneFormatError,
    label_path,
    list_stems,
    point_path,
    read_label_file,
    read_point_bin,
    read_scene,
    write_label_file,
    write_point_bin,
    write_scene,
)

from conftest import make_scene


def random_cloud(rng: np.random.Generator, n: int) -> PointCloud:
    # float32-exact values with intensity already in [0, 1], so a disk
    # round trip has nothing to clamp or quantize.
    pts = np.column_stack(
        [rng.uniform(-80.0, 80.0, size=(n, 3)), rng.uniform(0.0, 1.0, size=n)]
    )
    return PointCloud(pts.astype(np.float32).astype(np.float64))


# ---------------------------------------------------------------- containers


def test_point_cloud_requires_n_by_4():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        PointCloud(np.zeros(8))


def test_point_cloud_reports_first_nonfinite_point():
    pts = np.zeros((5, 4))
    pts[2, 1] = np.nan
    with pytest.raises(ValueError, match="point 2"):
        PointCloud(pts)


def test_point_cloud_is_read_only():
    cloud = PointCloud(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 1.0


def test_point_cloud_copies_input():
    src = np.zeros((2, 4))
    cloud = PointCloud(src)
    src[0, 0] = 9.0
    assert cloud.points[0, 0] == 0.0


def test_label_set_rejects_wide_ids():
    with pytest.raises(ValueError):
        LabelSet(np.array([0, 70000]))


def test_class_table_validation():
    with pytest.raises(ValueError):
        ClassTable(())
    with pytest.raises(ValueError):
        ClassTable(("a",), accumulable=frozenset({1}))
    table = ClassTable(("a", "b"), accumulable=frozenset({0}))
    assert table.num_classes == 2


def test_scene_checks_point_label_alignment():
    cloud = PointCloud(np.zeros((3, 4)))
    with pytest.raises(ValueError, match="3 points but 2 labels"):
        Scene(cloud, LabelSet(np.zeros(2, dtype=np.uint16)), "bad")


# ------------------------------------------------------------------ point IO


def test_empty_point_file(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    assert read_point_bin(path).n == 0


def test_single_record_decodes(tmp_path):
    path = tmp_path / "one.bin"
    path.write_bytes(struct.pack("<4f", 1.0, 2.0, 3.0, 0.5))
    cloud = read_point_bin(path)
    assert cloud.points.tolist() == [[1.0, 2.0, 3.0, 0.5]]


def test_zero_point_encodes_to_zero_bytes(tmp_path):
    path = tmp_path / "zero.bin"
    write_point_bin(PointCloud(np.zeros((1, 4))), path)
    assert path.read_bytes() == b"\x00" * 16


def test_partial_record_rejected_with_position(tmp_path):
    path = tmp_path / "cut.bin"
    path.write_bytes(b"\x00" * 23)
    with pytest.raises(SceneFormatError, match=r"23 is not a multiple of 16.*byte 16"):
        read_point_bin(path)


def test_nonfinite_point_rejected_with_index(tmp_path):
    pts = np.zeros((3, 4), dtype="<f4")
    pts[1, 0] = np.inf
    path = tmp_path / "inf.bin"
    path.write_bytes(pts.tobytes())
    with pytest.raises(SceneFormatError, match="point 1"):
        read_point_bin(path)


def test_read_clamps_intensity(tmp_path):
    pts = np.array([[0, 0, 0, 1.5], [0, 0, 0, -0.25]], dtype="<f4")
    path = tmp_path / "hot.bin"
    path.write_bytes(pts.tobytes())
    assert read_point_bin(path).points[:, 3].tolist() == [1.0, 0.0]


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=64),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_point_round_trip_is_bit_exact(tmp_path_factory, n, seed):
    cloud = random_cloud(np.random.default_rng(seed), n)
    path = tmp_path_factory.mktemp("rt") / "c.bin"
    write_point_bin(cloud, path)
    back = read_point_bin(path)
    assert back.points.tobytes() == cloud.points.tobytes()


# ------------------------------------------------------------------ label IO


def test_label_decode_low_bits(tmp_path):
    table = ClassTable(tuple(f"c{i}" for i in range(19)))
    path = tmp_path / "l.label"
    path.write_bytes(struct.pack("<I", 3))
    assert read_label_file(path, table).labels.tolist() == [3]


def test_label_out_of_range_maps_to_ignore(tmp_path):
    table = ClassTable(tuple(f"c{i}" for i in range(19)))
    path = tmp_path / "l.label"
    path.write_bytes(struct.pack("<I", 0x0001FFFF))
    assert read_label_file(path, table).labels.tolist() == [IGNORE_ID]


def test_label_high_bits_are_not_semantic(tmp_path):
    # Upper 16 bits (instance id territory) must be dropped before the
    # range check.
    table = ClassTable(tuple(f"c{i}" for i in range(19)))
    path = tmp_path / "l.label"
    path.write_bytes(struct.pack("<I", 0x00120005))
    assert read_label_file(path, table).labels.tolist() == [5]


def test_label_partial_record_rejected(tmp_path):
    path = tmp_path / "l.label"
    path.write_bytes(b"\x00" * 6)
    table = ClassTable(("a",))
    with pytest.raises(SceneFormatError, match=r"not a multiple of 4.*byte 4"):
        read_label_file(path, table)


def test_label_round_trip(tmp_path, rng):
    table = ClassTable(tuple(f"c{i}" for i in range(8)))
    labels = LabelSet(rng.integers(0, 8, size=100).astype(np.uint16))
    path = tmp_path / "r.label"
    write_label_file(labels, path)
    assert np.array_equal(read_label_file(path, table).labels, labels.labels)


# ------------------------------------------------------------------ scene IO


def test_scene_round_trip(tmp_path, rng, small_table):
    scene = make_scene(rng, n=33, num_classes=small_table.num_classes, scene_id="000001")
    write_scene(tmp_path, scene)
    back = read_scene(tmp_path, "000001", small_table)
    assert back.cloud.points.tobytes() == scene.cloud.points.tobytes()
    assert np.array_equal(back.labels.labels, scene.labels.labels)
    assert back.id == scene.id


def test_scene_count_mismatch_rejected(tmp_path, rng, small_table):
    scene = make_scene(rng, n=10, scene_id="s")
    write_scene(tmp_path, scene)
    write_label_file(LabelSet(np.zeros(9, dtype=np.uint16)), label_path(tmp_path, "s"))
    with pytest.raises(SceneFormatError, match="10 points but 9 labels"):
        read_scene(tmp_path, "s", small_table)


def test_list_stems_is_sorted_intersection(tmp_path, rng, small_table):
    for stem in ("b", "a", "c"):
        write_scene(tmp_path, make_scene(rng, n=4, scene_id=stem))
    point_path(tmp_path, "orphan").write_bytes(b"")
    assert list_stems(tmp_path) == ["a", "b", "c"]
