"""Bit-identity fingerprint of training and TTA scoring.

Trains five loss configurations on 16 clean 300-point scenes
(`SynthConfig(points_per_scene=300, seed=7)`, scenes 0-15, with
`ablation_base_config()` and `epochs=3`), scores 6 clean test scenes
(indices from `TEST_INDEX_BASE`) with TTA, and prints per case the first
16 hex digits of the sha256 of:

  step losses (packed `<4d?`: seg, gpl, gcl, total, skipped), model
  parameters, relation matrix, embedding blocks, TTA confusion matrix,
  and the TTA probabilities of the 6 test scenes, concatenated in order.

The last digest catches a scoring change that flips no argmax, which the
confusion matrix cannot show.

BLAS runs on one thread: the script sets OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS to 1 before numpy is imported,
because a multi-threaded matmul may sum in another order and print other
digests for the same code.

A change that claims unchanged numerics must print the same lines before
and after. Not collected by pytest; run it as a script:

    PYTHONPATH=src python3 tests/fingerprint.py
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import struct
import sys
from dataclasses import replace
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

if importlib.util.find_spec("geoseg") is None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from geoseg.synthetic import TEST_INDEX_BASE, SynthConfig, generate_scene  # noqa: E402
from geoseg.training import ablation_base_config, evaluate, train, tta_predict  # noqa: E402

CASES = {
    "baseline": {"lambda1": 0.0, "lambda2": 0.0},
    "cge": {"lambda2": 0.0},
    "full": {},
    "full_seg_on_augmented": {"seg_on_augmented": True},
    "lambda1_0_lambda2_1": {"lambda1": 0.0, "lambda2": 1.0},
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def fingerprint(overrides: dict) -> list[str]:
    scfg = SynthConfig(points_per_scene=300, seed=7)
    train_scenes = [generate_scene(scfg, i) for i in range(16)]
    test_scenes = [generate_scene(scfg, TEST_INDEX_BASE + j) for j in range(6)]
    cfg = replace(ablation_base_config(), epochs=3, **overrides)
    result = train(cfg, train_scenes, scfg.classes)
    state = result.state
    report = evaluate(state.model, test_scenes, scfg.classes, tta=True)
    losses = b"".join(
        struct.pack("<4d?", s.seg, s.gpl, s.gcl, s.total, s.skipped) for s in result.step_losses
    )
    params = b"".join(p.tobytes() for p in state.model.parameters())
    probs = b"".join(tta_predict(state.model, s.cloud).tobytes() for s in test_scenes)
    return [
        digest(losses),
        digest(params),
        digest(state.relation.values.tobytes()),
        digest(state.embedding.blocks.tobytes()),
        digest(report.confusion.tobytes()),
        digest(probs),
    ]


def main() -> None:
    for name, overrides in CASES.items():
        print(name, " ".join(fingerprint(overrides)))


if __name__ == "__main__":
    main()
