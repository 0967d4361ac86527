"""The package pins numpy's BLAS to one thread and glibc's malloc
thresholds unless the caller chose."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


HEAP_VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")
FREED_BYTES = 4 << 20


def free_heap_after_import(**preset: str) -> int:
    """glibc's `mallinfo2().fordblks` (free bytes kept in the arena) after a
    fresh `import deltafed` and a freed 4 MB array."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS + HEAP_VARS}
    env.update(preset, PYTHONPATH=str(SRC))
    code = f"""
import ctypes, deltafed, numpy as np
class Info(ctypes.Structure):
    _fields_ = [(n, ctypes.c_size_t) for n in (
        "arena ordblks smblks hblks hblkhd usmblks fsmblks uordblks fordblks keepcost".split())]
mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.argtypes = ()
mallinfo2.restype = Info
a = np.ones({FREED_BYTES} // 8)
del a
print(mallinfo2().fordblks)
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return int(out.stdout)


def has_mallinfo2() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallinfo2")
    except OSError:
        return False


@pytest.mark.skipif(not has_mallinfo2(), reason="needs glibc's mallinfo2")
def test_import_keeps_freed_memory_in_the_heap():
    assert free_heap_after_import() >= FREED_BYTES


@pytest.mark.skipif(not has_mallinfo2(), reason="needs glibc's mallinfo2")
def test_import_keeps_the_callers_malloc_thresholds():
    assert free_heap_after_import(MALLOC_MMAP_THRESHOLD_="131072") < FREED_BYTES


@pytest.mark.skipif(not has_mallinfo2(), reason="needs glibc's mallinfo2")
def test_a_tunable_outside_malloc_keeps_the_pin():
    assert free_heap_after_import(GLIBC_TUNABLES="glibc.rtld.optional_static_tls=512") >= FREED_BYTES
