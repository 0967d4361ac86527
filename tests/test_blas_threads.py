"""The package pins numpy's BLAS to one thread unless the caller chose."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_vars_after_import(**preset: str) -> list[str]:
    """The three variables as a fresh `import deltafed` leaves them."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(preset, PYTHONPATH=str(SRC))
    code = f"import os, deltafed; print(' '.join(os.environ.get(v, '-') for v in {BLAS_VARS!r}))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.split()


def test_import_pins_unset_blas_threads_to_one():
    assert blas_vars_after_import() == ["1", "1", "1"]


def test_import_keeps_a_value_the_caller_set():
    assert blas_vars_after_import(OPENBLAS_NUM_THREADS="2") == ["2", "1", "1"]
