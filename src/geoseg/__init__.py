"""Domain-generalized point cloud segmentation with category-level geometry learning.

Desk-scale reference implementation: numpy only, float64 parameters
(training runs the network's pass on a float32 copy), every random draw
routed through named Philox substreams so that runs are bit-reproducible.
"""

import ctypes
import os

__version__ = "0.1.0"

from geoseg.scenes import IGNORE_ID, ClassTable, LabelSet, PointCloud, Scene

# glibc mallopt parameters, and the ceilings of glibc's own dynamic
# mmap-threshold rule on 64-bit (DEFAULT_MMAP_THRESHOLD_MAX, twice that for trim).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 64 << 20


def _keep_step_temporaries_on_the_heap() -> None:
    """Fix glibc's malloc thresholds for this process, once, at import.

    A training step allocates megabytes of short-lived float32 and float64
    arrays (activations, tape gradients). Under glibc's default heuristics
    the heap top is trimmed after each burst of frees and large arrays go
    through mmap, so every step faults the same pages back in; that is a
    quarter or more of a step. Holding the thresholds at glibc's own
    ceilings keeps those pages in the heap between steps and changes no
    number. numpy's default hugepage madvise is the same kind of
    process-wide allocator policy set at import.

    A user's explicit allocator setting wins: with GLIBC_TUNABLES or any
    MALLOC_* variable in the environment this does nothing, and it does
    nothing where mallopt does not resolve (no glibc).
    """
    if any(key == "GLIBC_TUNABLES" or key.startswith("MALLOC_") for key in os.environ):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


_keep_step_temporaries_on_the_heap()

__all__ = [
    "IGNORE_ID",
    "ClassTable",
    "LabelSet",
    "PointCloud",
    "Scene",
    "__version__",
]
