"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload train_full --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
`src/`. With `--trace 0` the run prints every end-to-end metric of
BENCHMARK.json, with `--trace 1` every per-layer metric; each is printed
by name with its unit, and the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. The run is
also recorded, with a block describing the machine, under .bench_out/runs/.
The exit code is 0 when every check passed, 1 when a check failed and 2
when the run could not be made at all.

The process first re-executes itself with a pinned environment: one
BLAS/OpenMP thread and a fixed hash seed. It also drops every glibc malloc
setting it inherits (GLIBC_TUNABLES, MALLOC_*), so the program allocates as
`geoseg train` and `geoseg eval` do under glibc's defaults: how many pages
each step faults in is part of what is measured (see README.md).
"""

from __future__ import annotations

import os
import sys

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def _allocator_setting(key: str) -> bool:
    return key == "GLIBC_TUNABLES" or key.startswith("MALLOC_")


if __name__ == "__main__" and (any(os.environ.get(k) != v for k, v in PINNED_ENV.items())
                               or any(_allocator_setting(k) for k in os.environ)):
    if os.environ.get("GEOSEG_BENCH_PINNED"):
        sys.exit("run.py: the pinned environment did not take effect")
    env = {k: v for k, v in os.environ.items() if not _allocator_setting(k)}
    os.execve(sys.executable, [sys.executable, *sys.argv],
              {**env, **PINNED_ENV, "GEOSEG_BENCH_PINNED": "1"})

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "malloc": "{} {}, default settings".format(*platform.libc_ver()),
        "platform": platform.platform(),
    }


def default_seconds() -> float:
    return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=default_seconds(),
                   help="measured time; defaults to BENCHMARK.json's run_seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", default="acceptance", help="input sizes: acceptance or tiny")
    p.add_argument("--prepare", default=None, metavar="DIR",
                   help="internal: write eval_tta's checkpoint and scenes to DIR and exit")
    args = p.parse_args(argv)
    if args.prepare is None and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "geoseg" / "__init__.py").is_file():
        print(f"run.py: no geoseg sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    if args.prepare is not None:
        harness.prepare_eval(Path(args.prepare), args.seed, harness.SCALES[args.scale])
        return 0
    if args.workload not in harness.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}, expected one of "
              f"{', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_out"
    started = time.time()
    outcome = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                   args.scale, out_dir)
    correct = not outcome.problems
    for problem in outcome.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for problem in outcome.info.get("op_problems", []):
        print(f"operation failed: {problem}", file=sys.stderr)
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name} = {value!r} {unit}")
    for key in ("rounds", "measured_s", "peak_rss_end_mb", "traced_scenes_per_s"):
        if key in outcome.info:
            print(f"info.{key} = {outcome.info[key]!r}")
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale, "started": started,
              "machine": machine(), "result": result,
              "problems": outcome.problems[:20], "info": outcome.info}
    runs = out_dir / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    (runs / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct and outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
