import argparse
import json
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

from geoseg.cli import (
    TRAIN_KEYS,
    UsageError,
    build_parser,
    build_train_config,
    config_lines,
    parse_config_text,
    run_cli,
)
from geoseg.augment import AugmentationConfig
from geoseg.geometry_embedding import EmbeddingMatrix, RelationMatrix
from geoseg import cli
from geoseg.network import (
    CheckpointFormatError,
    PointNetLite,
    load_checkpoint,
    save_checkpoint,
)
from geoseg.scenes import SceneFormatError, read_scene
from geoseg.sinkhorn import SinkhornConfig
from geoseg.streams import substream
from geoseg.synthetic import SynthConfig, default_class_table, make_split
from geoseg.training import TrainConfig, evaluate

FAST_TRAIN = [
    "--epochs", "1", "--widths", "6,4", "--geom_props", "2",
    "--max_iters", "10", "--lr", "0.05", "--batch_size", "2",
]


def make_dataset(tmp_path: Path, scenes: int = 2, points: int = 40) -> Path:
    data = tmp_path / "data"
    code = run_cli([
        "synth", "--out", str(data), "--scenes", str(scenes),
        "--points", str(points), "--seed", "0",
    ])
    assert code == 0
    return data


# -------------------------------------------------------------- config format


def test_parse_config_text_skips_comments_and_blanks():
    text = "# header\n\nepochs = 5   # trailing\n  lr=0.1\n"
    assert parse_config_text(text, "config") == {"epochs": "5", "lr": "0.1"}


def test_parse_config_text_reports_the_offending_line():
    with pytest.raises(UsageError, match=r"config:3: expected 'key = value'"):
        parse_config_text("a = 1\n\nnot a pair\n", "config")


def test_build_train_config_flag_overrides_beat_the_file(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("lr = 0.1\nepochs = 7\n")
    cfg = build_train_config("train", str(path), {"lr": "0.2"})
    assert cfg.lr == 0.2
    assert cfg.epochs == 7


def test_build_train_config_rejects_unknown_keys_and_bad_values(tmp_path):
    with pytest.raises(UsageError, match="unknown config key 'learning_rate'"):
        build_train_config("train", None, {"learning_rate": "0.1"})
    with pytest.raises(UsageError, match="bad value for 'epochs'"):
        build_train_config("train", None, {"epochs": "three"})
    with pytest.raises(UsageError, match="config file not found"):
        build_train_config("train", str(tmp_path / "missing.txt"), {})


def test_config_lines_round_trip_every_field_type():
    cfg = TrainConfig(widths=(8, 4), seg_on_augmented=True, lr=0.3, seed=9,
                      sinkhorn=SinkhornConfig(max_iters=7),
                      augmentation=AugmentationConfig(rho=0.6))
    text = "\n".join(config_lines(cfg))
    rebuilt = build_train_config("train", None, parse_config_text(text, "config"))
    assert rebuilt == cfg


def readme_train_keys() -> dict[str, str]:
    """The README's training config keys table as {key: default text}; a
    paired row such as `beta1`, `beta2` | 0.3, 0.5 gives one entry per key."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Training config keys", 1)[1]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    out = {}
    for row in rows:
        keys, defaults = (cell.strip() for cell in row.strip("|").split("|")[:2])
        keys = [k.strip().strip("`") for k in keys.split(",")]
        defaults = [defaults] if len(keys) == 1 else [d.strip() for d in defaults.split(",")]
        assert len(keys) == len(defaults), row
        out.update(zip(keys, defaults))
    return out


def test_readme_config_table_matches_the_defaults():
    documented = readme_train_keys()
    actual = dict(line.split(" = ", 1) for line in config_lines(TrainConfig()))
    assert list(documented) == list(actual)
    for key, text in documented.items():
        parse = cli._PARSERS[TRAIN_KEYS[key][1]]
        assert parse(text) == parse(actual[key]), key


def test_each_leaf_field_has_one_flat_key_with_a_parser():
    subs = {"sinkhorn": SinkhornConfig, "augmentation": AugmentationConfig}
    assert {f.name for f in fields(TrainConfig) if is_dataclass(f.default)} == set(subs)
    leaves = [(f.name, None) for f in fields(TrainConfig) if f.name not in subs]
    leaves += [(f.name, holder) for holder, sub in subs.items() for f in fields(sub)]
    # Disjoint names, so a flat key names one field and no field copies another.
    assert len({name for name, _ in leaves}) == len(leaves)
    assert {key: holder for key, (holder, _) in TRAIN_KEYS.items()} == dict(leaves)
    assert all(kind in cli._PARSERS for _, kind in TRAIN_KEYS.values())


def key_value(cfg: TrainConfig, key: str):
    """The value that cfg holds under a flat key, read through TRAIN_KEYS."""
    holder = TRAIN_KEYS[key][0]
    return getattr(getattr(cfg, holder) if holder else cfg, key)


# A valid value other than the default for every training key.
NON_DEFAULT = {
    "epochs": "2", "batch_size": "3", "lr": "0.07", "momentum": "0.8",
    "weight_decay": "0.001", "widths": "5,3", "geom_props": "3", "epsilon": "0.5",
    "sigma": "0.2", "max_iters": "7", "tol": "1e-6", "lambda1": "0.5",
    "lambda2": "0.25", "seg_on_augmented": "true", "beta1": "0.4", "beta2": "0.6",
    "rho": "0.2", "h1": "0.1", "h2": "0.4", "gamma1": "0.2", "gamma2": "0.9",
    "fog_alpha_max": "0.05", "fog_threshold": "0.1", "accumulate_all": "true", "seed": "3",
}

SUBCOMMANDS = next(
    a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
).choices


class Reached(Exception):
    """Raised by a stub in place of the work a subcommand hands its config to."""


@pytest.mark.parametrize("command", list(SUBCOMMANDS))
def test_every_training_key_flag_reaches_the_config(command, tmp_path, monkeypatch):
    registered = [a.dest[len("key_"):] for a in SUBCOMMANDS[command]._actions
                  if a.dest.startswith("key_")]
    assert registered == list(cli.COMMAND_KEYS.get(command, ()))
    if not registered:
        return
    seen = {}

    def reach(**values):
        seen.update(values)
        raise Reached

    monkeypatch.setattr(cli, "train", lambda cfg, *a, **k: reach(cfg=cfg))
    monkeypatch.setattr(cli, "run_ablation", lambda base_cfg, **k: reach(cfg=base_cfg))
    monkeypatch.setattr(cli, "compound_augment", lambda scene, table, cfg, rng: reach(aug=cfg))
    monkeypatch.setattr(cli, "substream",
                        lambda seed, *names: seen.update(seed=seed) or substream(seed, *names))
    data = str(make_dataset(tmp_path))
    argv = {
        "train": ["train", "--data", data, "--out", str(tmp_path / "run")],
        "augment": ["augment", "--data", data, "--stem", "000000", "--out", str(tmp_path / "aug")],
        "ablate": ["ablate", "--seeds", "0"],
    }[command]
    with pytest.raises(Reached):
        run_cli(argv + [f"--{key}={NON_DEFAULT[key]}" for key in registered])
    for key in registered:
        want = cli._PARSERS[TRAIN_KEYS[key][1]](NON_DEFAULT[key])
        assert want != key_value(TrainConfig(), key), key
        if command != "augment":
            got = key_value(seen["cfg"], key)
        else:
            got = seen["seed"] if key == "seed" else getattr(seen["aug"], key)
        assert got == want, key


# ----------------------------------------------------------------- subcommands


def test_synth_writes_paired_files_with_zero_padded_stems(tmp_path, capsys):
    data = make_dataset(tmp_path, scenes=3)
    out = capsys.readouterr().out
    assert "scenes = 3" in out
    for i in range(3):
        assert (data / "velodyne" / f"{i:06d}.bin").is_file()
        assert (data / "labels" / f"{i:06d}.label").is_file()


@pytest.mark.parametrize("flag, named", [
    ("--extent=nan", "scene_extent"), ("--extent=inf", "scene_extent"),
    ("--severity=inf", "shift_severity"), ("--severity=nan", "shift_severity"),
    ("--scenes=-2", "--scenes"),
])
def test_synth_rejects_a_bad_setting_before_writing(flag, named, tmp_path, capsys):
    out = tmp_path / "data"
    assert run_cli(["synth", "--out", str(out), flag]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not out.exists()


def test_synth_at_severity_zero_writes_the_training_scenes(tmp_path):
    """Not the unshifted test scenes that ablate --severity 0 scores."""
    data = make_dataset(tmp_path, scenes=2)
    train_scenes, test_scenes = make_split(SynthConfig(points_per_scene=40, shift_severity=0.0), 2, 2)
    for i in range(2):
        written = read_scene(data, f"{i:06d}", default_class_table()).cloud.points.tobytes()
        assert written == train_scenes[i].cloud.points.tobytes()
        assert written != test_scenes[i].cloud.points.tobytes()


def test_train_zero_epochs_still_writes_artifacts(tmp_path):
    data = make_dataset(tmp_path)
    out = tmp_path / "run"
    code = run_cli([
        "train", "--data", str(data), "--out", str(out), "--epochs", "0",
        "--widths", "6,4", "--geom_props", "2",
    ])
    assert code == 0
    assert (out / "checkpoint.gseg").is_file()
    assert "epochs = 0" in (out / "config.txt").read_text()
    assert (out / "losses.txt").read_text() == "\n"


def test_train_on_an_empty_data_directory_needs_zero_epochs(tmp_path, capsys):
    data = tmp_path / "empty"
    data.mkdir()
    out = tmp_path / "run"
    code = run_cli(["train", "--data", str(data), "--out", str(out), "--epochs", "0",
                    "--widths", "6,4", "--geom_props", "2"])
    assert code == 0
    assert (out / "checkpoint.gseg").is_file()
    capsys.readouterr()
    code = run_cli(["train", "--data", str(data), "--out", str(tmp_path / "run1"),
                    "--epochs", "1"])
    assert code == 1
    assert capsys.readouterr().err == f"error: no scenes under {data}\n"
    assert not (tmp_path / "run1" / "checkpoint.gseg").exists()


def test_train_out_is_the_only_name_of_its_directory(tmp_path, capsys):
    data = make_dataset(tmp_path)
    run = tmp_path / "run"
    config = tmp_path / "train.txt"
    config.write_text(f"out_dir = {run}\n")
    capsys.readouterr()
    assert run_cli(["train", "--data", str(data), "--out_dir", str(run)] + FAST_TRAIN) == 1
    assert f"unrecognized arguments: --out_dir {run}" in capsys.readouterr().err
    assert run_cli(["train", "--data", str(data), "--config", str(config)] + FAST_TRAIN) == 1
    assert capsys.readouterr().err == "error: unknown config key 'out_dir' for train\n"
    assert not run.exists()


def test_the_old_solver_key_names_exit_one(tmp_path, capsys):
    """The solver keys are max_iters and tol, the names SinkhornConfig uses."""
    data = make_dataset(tmp_path)
    run = tmp_path / "run"
    config = tmp_path / "train.txt"
    config.write_text("sinkhorn_tol = 1e-6\n")
    capsys.readouterr()
    argv = ["train", "--data", str(data), "--out", str(run)] + FAST_TRAIN
    assert run_cli(argv + ["--sinkhorn_iters", "10"]) == 1
    assert "unrecognized arguments: --sinkhorn_iters 10" in capsys.readouterr().err
    assert run_cli(argv + ["--config", str(config)]) == 1
    assert capsys.readouterr().err == "error: unknown config key 'sinkhorn_tol' for train\n"
    assert not run.exists()


def test_train_prints_and_records_per_epoch_totals(tmp_path, capsys):
    data = make_dataset(tmp_path)
    out = tmp_path / "run"
    code = run_cli(["train", "--data", str(data), "--out", str(out)] + FAST_TRAIN)
    captured = capsys.readouterr().out
    assert code == 0
    assert "epoch_0_total = " in captured
    losses = (out / "losses.txt").read_text()
    for name in ("seg", "gpl", "gcl", "total"):
        assert f"epoch_0_{name} = " in losses


def test_eval_reports_metrics_and_writes_json(tmp_path, capsys):
    data = make_dataset(tmp_path)
    run_dir = tmp_path / "run"
    assert run_cli([
        "train", "--data", str(data), "--out", str(run_dir),
        "--epochs", "0", "--widths", "6,4", "--geom_props", "2",
    ]) == 0
    json_path = tmp_path / "report.json"
    code = run_cli([
        "eval", "--checkpoint", str(run_dir / "checkpoint.gseg"),
        "--data", str(data), "--json", str(json_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "miou = " in out
    payload = json.loads(json_path.read_text())
    assert "miou" in payload
    assert len(payload["per_class_iou"]) == 6


def test_eval_json_is_strict_when_no_class_is_present(tmp_path):
    data = make_dataset(tmp_path)
    run_dir = tmp_path / "run"
    assert run_cli([
        "train", "--data", str(data), "--out", str(run_dir),
        "--epochs", "0", "--widths", "6,4", "--geom_props", "2",
    ]) == 0
    for path in (data / "labels").glob("*.label"):
        path.write_bytes(np.full(40, 100, dtype="<u4").tobytes())  # all outside the table
    json_path = tmp_path / "report.json"
    assert run_cli([
        "eval", "--checkpoint", str(run_dir / "checkpoint.gseg"),
        "--data", str(data), "--json", str(json_path),
    ]) == 0

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    payload = json.loads(json_path.read_text(), parse_constant=reject)
    assert payload == {"per_class_iou": [None] * 6, "miou": None}


def test_eval_rejects_class_count_mismatch(tmp_path, capsys):
    data = make_dataset(tmp_path)
    model = PointNetLite.create(4, (6, 4), rng=substream(0, "init-model"))
    relation = RelationMatrix.initial(4, 2, rng=substream(0, "init-relation"))
    embedding = EmbeddingMatrix.initial(
        4, model.feature_dim, 2, rng=substream(0, "init-embedding")
    )
    ckpt = tmp_path / "four.gseg"
    save_checkpoint(ckpt, model, relation, embedding)
    code = run_cli(["eval", "--checkpoint", str(ckpt), "--data", str(data)])
    assert code == 1
    assert "4 classes" in capsys.readouterr().err


def test_augment_writes_scene_and_report(tmp_path, capsys):
    data = make_dataset(tmp_path)
    out = tmp_path / "aug"
    capsys.readouterr()
    code = run_cli([
        "augment", "--data", str(data), "--stem", "000000", "--out", str(out),
        "--beta1", "1.0", "--beta2", "1.0",
    ])
    assert code == 0
    assert (out / "velodyne" / "000000.bin").is_file()
    report = (out / "000000_report.txt").read_text()
    assert report == capsys.readouterr().out
    assert "psi1_applied = true" in report
    assert "psi2_applied = true" in report


def test_augment_seed_drives_the_draw(tmp_path):
    data = make_dataset(tmp_path)
    written = {}
    for name, seed in (("a", "0"), ("b", "0"), ("c", "5")):
        out = tmp_path / name
        assert run_cli([
            "augment", "--data", str(data), "--stem", "000000", "--out", str(out),
            "--beta1", "1", "--beta2", "1", "--seed", seed,
        ]) == 0
        written[name] = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    points = Path("velodyne", "000000.bin")
    assert written["a"] == written["b"]
    assert written["a"][points] != written["c"][points]


def test_augment_rejects_training_only_keys(tmp_path, capsys):
    data = make_dataset(tmp_path)
    code = run_cli([
        "augment", "--data", str(data), "--stem", "000000",
        "--out", str(tmp_path / "aug"), "--lr", "0.5",
    ])
    assert code == 1
    assert "unrecognized arguments: --lr 0.5" in capsys.readouterr().err
    code = run_cli([
        "augment", "--data", str(data), "--stem", "000000",
        "--out", str(tmp_path / "aug"), "--beta1", "2",
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: beta1 must be in [0, 1]")


@pytest.mark.parametrize("flag", [
    "--fog_threshold=nan", "--fog_alpha_max=nan", "--h2=inf", "--gamma2=inf",
])
def test_augment_rejects_a_non_finite_key(flag, tmp_path, capsys):
    data = make_dataset(tmp_path)
    out = tmp_path / "aug"
    code = run_cli(["augment", "--data", str(data), "--stem", "000000", "--out", str(out), flag])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {flag[2:].split('=')[0]} must be finite")
    assert not out.exists()


@pytest.mark.parametrize("tta", [False, True])
def test_severity_sweep_is_synth_then_eval(tta, tmp_path):
    data = make_dataset(tmp_path, scenes=4)
    run_dir = tmp_path / "run"
    assert run_cli(["train", "--data", str(data), "--out", str(run_dir)] + FAST_TRAIN) == 0
    model, _, _ = load_checkpoint(run_dir / "checkpoint.gseg")
    table = default_class_table()
    for severity in (0.5, 2.0):
        shifted = tmp_path / f"shifted-{severity}"
        report = tmp_path / f"report-{severity}.json"
        assert run_cli([
            "synth", "--out", str(shifted), "--scenes", "3", "--points", "40",
            "--severity", str(severity),
        ]) == 0
        assert run_cli([
            "eval", "--checkpoint", str(run_dir / "checkpoint.gseg"),
            "--data", str(shifted), "--json", str(report),
        ] + (["--tta"] if tta else [])) == 0
        _, expected = make_split(SynthConfig(points_per_scene=40, shift_severity=severity), 0, 3)
        for i, scene in enumerate(expected):
            written = read_scene(shifted, f"{i:06d}", table)
            assert written.cloud.points.tobytes() == scene.cloud.points.tobytes()
            assert written.labels.labels.tobytes() == scene.labels.labels.tobytes()
        want = evaluate(model, expected, table, tta=tta).miou
        assert json.loads(report.read_text())["miou"] == want


def test_gradcheck_command_passes(capsys):
    assert run_cli(["gradcheck", "--cases", "2", "--seed", "0"]) == 0
    assert "passed = true" in capsys.readouterr().out


@pytest.mark.parametrize("cases", ["0", "-2"])
def test_gradcheck_with_no_cases_exits_one(cases, capsys):
    assert run_cli(["gradcheck", "--cases", cases]) == 1
    assert capsys.readouterr().err == f"error: cases must be >= 1, got {cases}\n"


def test_ablate_tiny_battery_writes_table_and_json(tmp_path, capsys):
    out = tmp_path / "ablation"
    code = run_cli([
        "ablate", "--out", str(out), "--seeds", "0", "--train_scenes", "2",
        "--test_scenes", "1", "--points", "30",
    ] + FAST_TRAIN)
    assert code == 0
    text = (out / "ablation.txt").read_text()
    for variant in ("baseline", "cge", "full"):
        assert f"miou_{variant}_seed0 = " in text
        assert f"miou_{variant}_mean = " in text
    payload = json.loads((out / "ablation.json").read_text())
    assert [entry["variant"] for entry in payload] == ["baseline", "cge", "full"]
    assert all(len(entry["epoch_totals"]) == 1 for entry in payload)
    assert "elapsed_seconds = " in capsys.readouterr().out


@pytest.mark.parametrize("seeds, count, err", [
    ("0", "0", "n_test must be >= 1, got 0"),
    ("0", "-1", "n_test must be >= 1, got -1"),
    ("0,0,1", "1", "seeds must be distinct, got (0, 0, 1)"),
    ("0,-1", "1", "seeds must be >= 0, got (0, -1)"),
], ids=["0", "-1", "repeated-seeds", "negative-seed"])
def test_ablate_without_test_scenes_exits_one_before_writing(
    seeds, count, err, tmp_path, capsys
):
    """No test scene, or a seed given twice or negative, exits 1 before
    anything trains."""
    out = tmp_path / "ablation"
    code = run_cli([
        "ablate", "--out", str(out), "--seeds", seeds, "--train_scenes", "2",
        "--test_scenes", count, "--points", "40",
    ] + FAST_TRAIN)
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {err}\n"
    assert "nan" not in captured.out
    assert not out.exists()


def test_ablate_flags_hold_the_battery_defaults(monkeypatch):
    """The flags are the only home of the battery's scale and shift severity."""
    seen = {}

    def reach(**kwargs):
        seen.update(kwargs)
        raise Reached

    monkeypatch.setattr(cli, "run_ablation", reach)
    with pytest.raises(Reached):
        run_cli(["ablate"])
    del seen["progress"]
    assert seen == dict(base_cfg=TrainConfig(), synth_cfg=SynthConfig(shift_severity=1.5),
                        seeds=(0, 1, 2, 3, 4), n_train=200, n_test=50)


@pytest.mark.parametrize("via", ["flag", "config"])
def test_ablate_takes_no_seed_and_exits_one_before_writing(via, tmp_path, capsys):
    """run_ablation sets every run's seed from --seeds."""
    out = tmp_path / "ablation"
    config = tmp_path / "ablate.txt"
    config.write_text("seed = 3\n")
    extra = ["--seed", "3"] if via == "flag" else ["--config", str(config)]
    code = run_cli([
        "ablate", "--out", str(out), "--seeds", "0", "--train_scenes", "2",
        "--test_scenes", "1", "--points", "30",
    ] + FAST_TRAIN + extra)
    assert code == 1
    err = capsys.readouterr().err
    if via == "flag":
        assert "unrecognized arguments: --seed 3" in err
    else:
        assert err == "error: unknown config key 'seed' for ablate\n"
    assert not (out / "ablation.json").exists()


# ------------------------------------------------------------------ exit codes


def test_usage_failures_exit_one(tmp_path, capsys):
    assert run_cli(["bogus-command"]) == 1
    assert run_cli(["synth"]) == 1  # missing required --out
    assert run_cli(["train", "--data", str(tmp_path / "nowhere")]) == 1
    assert "data directory not found" in capsys.readouterr().err


@pytest.mark.parametrize("exc, code, prefix", [
    (UsageError, 1, "error: "),
    (SceneFormatError, 1, "error: "),
    (CheckpointFormatError, 1, "error: "),
    (ValueError, 1, "error: "),
    (OSError, 1, "error: "),
    (FloatingPointError, 2, "numeric failure: "),
])
def test_subcommand_exceptions_map_to_exit_codes(exc, code, prefix, monkeypatch, capsys):
    def fail(args):
        raise exc("boom")

    monkeypatch.setattr(cli, "cmd_gradcheck", fail)
    assert run_cli(["gradcheck"]) == code
    assert capsys.readouterr().err == f"{prefix}boom\n"


@pytest.mark.parametrize("flag", [
    "--widths=", "--batch_size=0", "--geom_props=0", "--epochs=-1", "--lr=nan", "--sigma=0",
    "--momentum=nan", "--weight_decay=nan", "--lambda1=-1", "--lambda2=nan", "--epsilon=2",
    "--fog_threshold=nan", "--fog_alpha_max=nan", "--h2=inf", "--seed=-1",
])
def test_train_rejects_a_bad_config_before_writing(flag, tmp_path, capsys):
    data = make_dataset(tmp_path)
    out = tmp_path / "run"
    capsys.readouterr()
    code = run_cli(["train", "--data", str(data), "--out", str(out)] + FAST_TRAIN + [flag])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "checkpoint.gseg").exists()


def test_train_rejects_a_negative_seed_before_reading_scenes(tmp_path, capsys):
    code = run_cli(["train", "--data", str(tmp_path / "nowhere"), "--seed", "-1"])
    assert code == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


def test_a_non_finite_run_exits_two_without_a_checkpoint(tmp_path, capsys):
    data = tmp_path / "clean"
    assert run_cli(["synth", "--out", str(data), "--scenes", "2", "--points", "60",
                    "--seed", "1"]) == 0
    out = tmp_path / "run"
    capsys.readouterr()
    code = run_cli(["train", "--data", str(data), "--out", str(out), "--epochs", "1",
                    "--lr", "1e308", "--batch_size", "1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("numeric failure: non-finite total loss")
    assert not (out / "checkpoint.gseg").exists()


def test_eval_rejects_a_non_finite_checkpoint(tmp_path, capsys):
    data = make_dataset(tmp_path)
    run_dir = tmp_path / "run"
    assert run_cli(["train", "--data", str(data), "--out", str(run_dir)] + FAST_TRAIN) == 0
    ckpt = run_dir / "checkpoint.gseg"
    raw = bytearray(ckpt.read_bytes())
    raw[-8:] = np.float64(np.nan).tobytes()
    ckpt.write_bytes(bytes(raw))
    capsys.readouterr()
    code = run_cli(["eval", "--checkpoint", str(ckpt), "--data", str(data), "--tta"])
    assert code == 1
    assert "non-finite" in capsys.readouterr().err


def test_eval_exits_two_when_a_finite_checkpoint_overflows(tmp_path, capsys):
    data = make_dataset(tmp_path)
    # Finite, so it loads; saturated features make every logit overflow.
    model = PointNetLite.create(6, (6, 4), rng=substream(0, "init-model"))
    model.biases[-1][:] = 10.0
    model.head_weight[:] = 1e308
    relation = RelationMatrix.initial(6, 2, rng=substream(0, "init-relation"))
    embedding = EmbeddingMatrix.initial(
        6, model.feature_dim, 2, rng=substream(0, "init-embedding")
    )
    ckpt = tmp_path / "overflow.gseg"
    save_checkpoint(ckpt, model, relation, embedding)
    capsys.readouterr()
    with np.errstate(over="ignore", invalid="ignore"):
        code = run_cli(["eval", "--checkpoint", str(ckpt), "--data", str(data)])
    assert code == 2
    assert capsys.readouterr().err.startswith("numeric failure: non-finite logits")


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    assert "synth" in capsys.readouterr().out


def test_malformed_point_file_exits_one(tmp_path, capsys):
    data = tmp_path / "data"
    (data / "velodyne").mkdir(parents=True)
    (data / "labels").mkdir()
    (data / "velodyne" / "000000.bin").write_bytes(b"\x00" * 7)
    (data / "labels" / "000000.label").write_bytes(np.zeros(1, dtype="<u4").tobytes())
    code = run_cli(["train", "--data", str(data), "--epochs", "0",
                    "--out", str(tmp_path / "run")])
    assert code == 1
    assert "not a multiple of 16" in capsys.readouterr().err
