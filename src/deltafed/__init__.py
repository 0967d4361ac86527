"""Desk-scale federated fine-tuning with delta aggregation and LoRA adapters."""

import os
import sys

# One BLAS thread per process unless the caller chose otherwise: the model's
# matrices are small and runs already train clients in parallel worker
# processes, so more threads only oversubscribe the cores. A BLAS reads the
# variables when numpy loads; `_pin_loaded_blas` covers a numpy loaded first.
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_BLAS_CHOSEN = any(var in os.environ for var in _BLAS_VARS)
for _var in _BLAS_VARS:
    os.environ.setdefault(_var, "1")
del _var

# The thread-count setters of the BLAS builds numpy ships with, in the order
# they are tried: scipy-openblas (numpy's wheels), OpenBLAS, MKL.
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads", "MKL_Set_Num_Threads")


def _loaded_libraries() -> list[str]:
    """Paths of the shared libraries this process has mapped, read from
    /proc/self/maps; [] where there is none."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="surrogateescape") as maps:
            # address perms offset dev inode [path], where a path may hold spaces
            fields = [line.split(maxsplit=5) for line in maps.read().splitlines()]
    except OSError:
        return []
    return list(dict.fromkeys(f[5] for f in fields if len(f) == 6 and ".so" in f[5]))


def _pin_loaded_blas() -> None:
    """Set an already loaded BLAS to one thread through its own setter.

    numpy imported before this package read none of the variables, and its
    OpenBLAS runs a thread per core: a d = 256 run took 35.4 s that way
    against 5.1 s with the pin. The first setter in _BLAS_SETTERS that a
    loaded BLAS or MKL library exports is called; if none does, nothing is.
    """
    import ctypes

    libraries = [p for p in _loaded_libraries() if "blas" in p.lower() or "mkl" in p.lower()]
    for name in _BLAS_SETTERS:
        for path in libraries:
            try:
                setter = getattr(ctypes.CDLL(path), name)
            except (OSError, AttributeError):
                continue
            setter.argtypes = (ctypes.c_int,)
            setter.restype = None
            setter(1)
            return


if "numpy" in sys.modules and not _BLAS_CHOSEN:
    _pin_loaded_blas()


def _pin_heap() -> None:
    """Fix glibc's malloc thresholds unless the caller set them.

    With glibc's default dynamic thresholds a process hands its heap top
    back to the system as its MB-sized temporaries are freed, and every
    regrown page faults. A training worker took 34K faults and a third more
    time per round of 32 steps on a 256-wide model that way, and a run's
    setup 5.2 ms against 3.2 ms. Fixed thresholds keep freed memory for the
    next allocation; forked workers inherit them. This holds for any process
    that imports the package. A caller who set either threshold, or any
    `glibc.malloc.` tunable, keeps malloc as glibc set it up. Where there is
    no `mallopt` this does nothing.
    """
    if "MALLOC_MMAP_THRESHOLD_" in os.environ or "MALLOC_TRIM_THRESHOLD_" in os.environ:
        return
    if "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""):
        return
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, glibc's largest
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


_pin_heap()

from .config import ExperimentConfig, load_config, parse_config, save_config
from .errors import (
    ArgumentError,
    ConfigError,
    DeltaFedError,
    FormatError,
    NumericalError,
    ProtocolError,
    StructureError,
)
from .harness import ExperimentResult, compare_modes, run_experiment
from .params import (
    ParameterSet,
    add_delta,
    l2_norm,
    subtract_trainable,
    weighted_sum,
)

__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
    "ConfigError",
    "DeltaFedError",
    "ExperimentConfig",
    "ExperimentResult",
    "FormatError",
    "NumericalError",
    "ParameterSet",
    "ProtocolError",
    "StructureError",
    "add_delta",
    "compare_modes",
    "l2_norm",
    "load_config",
    "parse_config",
    "run_experiment",
    "save_config",
    "subtract_trainable",
    "weighted_sum",
    "__version__",
]
