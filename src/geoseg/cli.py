"""Command line interface.

Subcommands: synth, train, eval, augment, gradcheck, ablate. Training
options live in a flat `key = value` config file; train, augment and
ablate take the keys they read (COMMAND_KEYS), each also as a CLI flag
of the same name, and flags win over the file. Exit codes: 0 success,
1 usage or input error, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
from pathlib import Path

from geoseg.augment import AugmentationConfig, compound_augment
from geoseg.gradcheck import run_gradient_check
from geoseg.network import CheckpointFormatError, load_checkpoint, save_checkpoint
from geoseg.scenes import (
    ClassTable,
    Scene,
    SceneFormatError,
    list_stems,
    read_scene,
    write_scene,
)
from geoseg.streams import substream
from geoseg.synthetic import SynthConfig, default_class_table, make_split
from geoseg.training import TrainConfig, evaluate, run_ablation, train


class UsageError(Exception):
    """Bad arguments, bad config keys, or inconsistent inputs; exit code 1."""


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_widths(s: str) -> tuple[int, ...]:
    return tuple(int(part) for part in s.split(",") if part.strip())


_PARSERS = {
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "str": str,
    "tuple[int, ...]": _parse_widths,
}

TRAIN_KEYS: dict[str, str] = {
    f.name: f.type for f in dataclasses.fields(TrainConfig)
}

# The training keys each subcommand reads. run_ablation sets every run's
# seed from --seeds, so ablate takes no seed key.
COMMAND_KEYS: dict[str, tuple[str, ...]] = {
    "train": tuple(TRAIN_KEYS),
    "augment": tuple(f.name for f in dataclasses.fields(AugmentationConfig)) + ("seed",),
    "ablate": tuple(key for key in TRAIN_KEYS if key != "seed"),
}


def parse_config_text(text: str, source: str) -> dict[str, str]:
    """Flat `key = value` lines; '#' starts a comment, blanks are skipped."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise UsageError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        values[key.strip()] = value.strip()
    return values


def build_train_config(
    command: str, config_path: str | None, overrides: dict[str, str]
) -> TrainConfig:
    """TrainConfig from the config file, then the flags; a key that the
    command does not read is a UsageError."""
    raw: dict[str, str] = {}
    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise UsageError(f"config file not found: {path}")
        raw.update(parse_config_text(path.read_text(), source=str(path)))
    raw.update(overrides)
    kwargs = {}
    for key, sval in raw.items():
        if key not in COMMAND_KEYS[command]:
            raise UsageError(f"unknown config key {key!r} for {command}")
        try:
            kwargs[key] = _PARSERS[TRAIN_KEYS[key]](sval)
        except ValueError as exc:
            raise UsageError(f"bad value for {key!r}: {exc}") from exc
    try:
        return TrainConfig(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def config_lines(cfg: TrainConfig) -> list[str]:
    out = []
    for f in dataclasses.fields(TrainConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, bool):
            text = str(value).lower()
        elif isinstance(value, tuple):
            text = ",".join(str(v) for v in value)
        else:
            text = str(value)
        out.append(f"{f.name} = {text}")
    return out


def _add_train_key_flags(parser: argparse.ArgumentParser, command: str) -> None:
    for key in COMMAND_KEYS[command]:
        parser.add_argument(f"--{key}", dest=f"key_{key}", metavar="VALUE")


def _collect_overrides(args: argparse.Namespace) -> dict[str, str]:
    out = {}
    for key in TRAIN_KEYS:
        value = getattr(args, f"key_{key}", None)
        if value is not None:
            out[key] = value
    return out


def _load_scenes(root: str, table: ClassTable) -> list[Scene]:
    root_path = Path(root)
    if not root_path.is_dir():
        raise UsageError(f"data directory not found: {root}")
    return [read_scene(root_path, stem, table) for stem in list_stems(root_path)]


def _write_lines(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def cmd_synth(args: argparse.Namespace) -> int:
    if args.scenes < 0:
        raise UsageError(f"--scenes must be >= 0, got {args.scenes}")
    cfg = SynthConfig(
        points_per_scene=args.points,
        scene_extent=args.extent,
        shift_severity=args.severity,
        seed=args.seed,
    )
    out = Path(args.out)
    if args.severity > 0:
        _, scenes = make_split(cfg, 0, args.scenes)
    else:
        scenes, _ = make_split(cfg, args.scenes, 0)
    for i, scene in enumerate(scenes):
        write_scene(out, Scene(scene.cloud, scene.labels, f"{i:06d}"))
    print(f"scenes = {args.scenes}")
    print(f"points_per_scene = {args.points}")
    print(f"out = {out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = build_train_config("train", args.config, _collect_overrides(args))
    table = default_class_table()
    scenes = _load_scenes(args.data, table)
    if cfg.epochs > 0 and not scenes:
        raise UsageError(f"no scenes under {args.data}")

    def progress(epoch, summary):
        print(f"epoch_{epoch}_total = {summary['total']:.6f}")

    result = train(cfg, scenes, table, progress=progress)
    state = result.state
    out_dir = Path(args.out)
    save_checkpoint(out_dir / "checkpoint.gseg", state.model, state.relation, state.embedding)
    _write_lines(out_dir / "config.txt", config_lines(cfg))
    loss_lines = []
    for i, summary in enumerate(result.epoch_losses):
        for name in ("seg", "gpl", "gcl", "total"):
            loss_lines.append(f"epoch_{i}_{name} = {summary[name]:.6f}")
    _write_lines(out_dir / "losses.txt", loss_lines)
    print(f"checkpoint = {out_dir / 'checkpoint.gseg'}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    table = default_class_table()
    model, relation, embedding = load_checkpoint(args.checkpoint)
    if model.num_classes != table.num_classes:
        raise UsageError(
            f"checkpoint has {model.num_classes} classes but the class table has "
            f"{table.num_classes}"
        )
    scenes = _load_scenes(args.data, table)
    if not scenes:
        raise UsageError(f"no scenes under {args.data}")
    report = evaluate(model, scenes, table, tta=args.tta)
    lines = report.lines(table.names)
    for line in lines:
        print(line)
    if args.out is not None:
        _write_lines(Path(args.out), lines)
    if args.json is not None:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report.to_json_dict(), indent=2) + "\n")
    return 0


def cmd_augment(args: argparse.Namespace) -> int:
    table = default_class_table()
    scene = read_scene(Path(args.data), args.stem, table)
    cfg = build_train_config("augment", None, _collect_overrides(args))
    rng = substream(cfg.seed, "pags", scene.id)
    augmented, report = compound_augment(scene, table, cfg.augmentation(), rng)
    out = Path(args.out)
    write_scene(out, augmented)
    lines = report.lines()
    _write_lines(out / f"{scene.id}_report.txt", lines)
    for line in lines:
        print(line)
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    report = run_gradient_check(seed=args.seed, cases=args.cases)
    for line in report.lines():
        print(line)
    if not report.passed:
        for failure in report.failures[:10]:
            print(f"failure: {failure}", file=sys.stderr)
        return 2
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    base_cfg = build_train_config("ablate", args.config, _collect_overrides(args))
    seeds = tuple(int(s) for s in args.seeds.split(",") if s.strip())
    synth_cfg = SynthConfig(points_per_scene=args.points, shift_severity=args.severity)

    def progress(run):
        print(f"miou_{run.variant}_seed{run.seed} = {run.miou:.6f}")

    start = time.perf_counter()
    result = run_ablation(
        base_cfg=base_cfg,
        synth_cfg=synth_cfg,
        seeds=seeds,
        n_train=args.train_scenes,
        n_test=args.test_scenes,
        progress=progress,
    )
    elapsed = time.perf_counter() - start
    lines = result.table_lines()
    for line in lines:
        print(line)
    print(f"elapsed_seconds = {elapsed:.1f}")
    if args.out is not None:
        out = Path(args.out)
        _write_lines(out / "ablation.txt", lines)
        payload = [dataclasses.asdict(r) for r in result.runs]
        out.mkdir(parents=True, exist_ok=True)
        (out / "ablation.json").write_text(json.dumps(payload, indent=2) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geoseg",
        description="Domain-generalized point cloud segmentation, desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # One name per option: with abbreviations, ablate would read --seed as --seeds.
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add_parser("synth", help="generate a synthetic dataset directory")
    p.add_argument("--out", required=True)
    p.add_argument("--scenes", type=int, default=10)
    p.add_argument("--points", type=int, default=600)
    p.add_argument("--extent", type=float, default=50.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--severity", type=float, default=0.0,
                   help="0 for the clean training scenes, >0 for shifted test scenes")
    p.set_defaults(func=cmd_synth)

    p = add_parser("train", help="train on a dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default="runs/default", help="artifact directory")
    _add_train_key_flags(p, "train")
    p.set_defaults(func=cmd_train)

    p = add_parser("eval", help="evaluate a checkpoint on a dataset directory")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--tta", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_eval)

    p = add_parser("augment", help="adversely augment one scene")
    p.add_argument("--data", required=True)
    p.add_argument("--stem", required=True)
    p.add_argument("--out", required=True)
    _add_train_key_flags(p, "augment")
    p.set_defaults(func=cmd_augment)

    p = add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=20)
    p.set_defaults(func=cmd_gradcheck)

    p = add_parser("ablate", help="train the component ladder and compare")
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.add_argument("--train_scenes", type=int, default=200)
    p.add_argument("--test_scenes", type=int, default=50)
    p.add_argument("--severity", type=float, default=1.5)
    p.add_argument("--points", type=int, default=600)
    _add_train_key_flags(p, "ablate")
    p.set_defaults(func=cmd_ablate)

    return parser


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (UsageError, SceneFormatError, CheckpointFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FloatingPointError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
