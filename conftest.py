"""Pin BLAS to one thread for the whole test run.

The variables must be set before numpy is first imported, and
bench/test_bench.py imports numpy at collection time, so this file sits
at the root of the repository: pytest loads it before it collects either
test directory. One thread keeps the suite's timing bounds (acceptance
criterion 5's 900 s) from depending on what else shares the machine, and
matches tests/fingerprint.py and bench/run.py, which pin the same way.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
