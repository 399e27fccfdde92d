"""Repeatability check: two alternating sets of runs of the same code.

    python3 bench/repeat.py --seeds 0-9 [--workloads train_full,eval_tta]
                            [--seconds 20] [--traced 3] [--json PATH]

For every seed and workload it runs bench/run.py once for set A and once
for set B, alternating which set goes first, each run in its own process.
It then prints, per workload and end-to-end metric, both sets' medians and
quartiles, the spread (interquartile distance over the median) and whether
the two sets agree within the metric's bound from BENCHMARK.json: both
spreads within the bound, and the two medians apart by no more than the
bound, as a share of set A's median, in either direction. With --traced N it also makes N traced runs per
workload, each next to an untraced run of the same seed, and prints the
tracing overhead on scenes_per_s.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).with_name("run.py")


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The run's result object, plus its `info.<key> = value` lines under "info"."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["info"] = {}
    for line in lines[:-1]:
        key, sep, value = line.partition(" = ")
        if sep and key.startswith("info."):
            result["info"][key[len("info."):]] = float(value)
    return result


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and spread as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2


def apart_by(first: float, second: float) -> float:
    """How far the second median lies from the first, as a share of the first."""
    return abs(second - first) / first


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--traced", type=int, default=0, help="traced runs per workload")
    p.add_argument("--json", default=None, help="also write every run's result here")
    args = p.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    workloads = args.workloads.split(",")
    metrics = spec["end_to_end"]

    results: dict = {w: {"A": [], "B": [], "untraced": [], "traced": []} for w in workloads}
    for i, seed in enumerate(seeds):
        for workload in workloads:
            for side in ("AB" if i % 2 == 0 else "BA"):
                results[workload][side].append(run_once(workload, seed, args.seconds, 0))
            print(f"seed {seed} {workload} done", file=sys.stderr, flush=True)
    for i, seed in enumerate(seeds[:args.traced]):
        for workload in workloads:
            for trace in ((0, 1) if i % 2 == 0 else (1, 0)):
                key = "traced" if trace else "untraced"
                results[workload][key].append(
                    run_once(workload, seed, args.seconds, trace))

    ok = True
    print(f"{'workload':<15}{'metric':<14}{'median A':>12}{'median B':>12}"
          f"{'q1 A':>12}{'q3 A':>12}{'spread A':>10}{'spread B':>10}{'apart':>9}"
          f"{'bound':>7}  agree")
    for workload in workloads:
        runs = results[workload]
        for side in ("A", "B"):
            shares = {r["failed"] / r["attempted"] for r in runs[side]}
            if len(shares) != 1 or not all(r["correct"] for r in runs[side]):
                ok = False
                print(f"{workload}: set {side} failed shares {shares}, or a run was incorrect")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            a = [r["metrics"][name]["value"] for r in runs["A"]]
            b = [r["metrics"][name]["value"] for r in runs["B"]]
            med_a, q1_a, q3_a, spread_a = summarize(a)
            med_b, _, _, spread_b = summarize(b)
            apart = apart_by(med_a, med_b)
            agree = apart <= bound and max(spread_a, spread_b) <= bound
            ok &= agree
            print(f"{workload:<15}{name:<14}{med_a:>12.5g}{med_b:>12.5g}{q1_a:>12.5g}"
                  f"{q3_a:>12.5g}{spread_a:>10.3f}{spread_b:>10.3f}{apart:>9.3f}"
                  f"{bound:>7.2f}  {'yes' if agree else 'NO'}")
    for workload in workloads:
        pairs = list(zip(results[workload]["untraced"], results[workload]["traced"]))
        if pairs:
            overhead = [1 - t["info"]["traced_scenes_per_s"]
                        / u["metrics"]["scenes_per_s"]["value"] for u, t in pairs]
            print(f"{workload}: tracing overhead on scenes_per_s, median of {len(pairs)} "
                  f"adjacent pairs: {statistics.median(overhead):.1%} "
                  f"(each: {', '.join(f'{o:.1%}' for o in overhead)})")
    print(json.dumps({"agree": ok}))
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
