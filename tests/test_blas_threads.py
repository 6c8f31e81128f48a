"""Importing the package makes OpenBLAS single-threaded unless the caller chose a count."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

# numpy's bundled OpenBLAS, queried through the symbol its build exports (if any)
PROBE = """
import ctypes, os
import pencil_spectra
import numpy
count = None
try:
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
except OSError:
    libs = []
for lib in libs:
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        fn = getattr(ctypes.CDLL(lib), sym, None)
        if fn is not None:
            count = fn()
            break
print(os.environ["OPENBLAS_NUM_THREADS"], count)
"""


def _probe(**env):
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    out = subprocess.run([sys.executable, "-c", PROBE], env=dict(base, PYTHONPATH=SRC, **env),
                         capture_output=True, text=True, check=True).stdout.split()
    return out[0], None if out[1] == "None" else int(out[1])


def test_import_defaults_openblas_to_one_thread():
    setting, count = _probe()
    assert setting == "1"
    assert count in (None, 1)


def test_a_thread_count_the_caller_set_is_kept():
    setting, count = _probe(OPENBLAS_NUM_THREADS="2")
    assert setting == "2"
    assert count in (None, 2)
