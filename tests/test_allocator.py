"""Importing geoseg fixes glibc's malloc thresholds unless the user set their own.

Each case trains in a fresh interpreter, so the thresholds and the heap
are those of a process that imported the package once.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the malloc thresholds are a glibc setting",
)

SRC = Path(__file__).resolve().parents[1] / "src"

# Warm-up train, then an identical train whose page faults per step are printed.
FAULTS_PER_STEP = """
import resource
from dataclasses import replace
from geoseg.synthetic import SynthConfig, default_class_table, generate_scene
from geoseg.training import ablation_base_config, train, variant_config

scenes = [generate_scene(SynthConfig(points_per_scene=600), i) for i in range(12)]
cfg = replace(variant_config(ablation_base_config(), "baseline"), epochs=1, batch_size=4)
table = default_class_table()
train(cfg, scenes, table)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train(cfg, scenes, table)
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print((after - before) / (len(scenes) // cfg.batch_size))
"""


def faults_per_step(**allocator_env: str) -> float:
    env = {k: v for k, v in os.environ.items()
           if k != "GLIBC_TUNABLES" and not k.startswith("MALLOC_")}
    env.update(allocator_env, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", FAULTS_PER_STEP], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def test_training_steps_reuse_their_heap_pages():
    assert faults_per_step() < 50


def test_a_user_allocator_setting_is_left_alone():
    # With the trim threshold at 128 KiB, every step's large temporaries are
    # handed back to the kernel and faulted in again.
    assert faults_per_step(MALLOC_TRIM_THRESHOLD_="131072") > 500
