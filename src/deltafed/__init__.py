"""Desk-scale federated fine-tuning with delta aggregation and LoRA adapters."""

import os

# One BLAS thread per process unless the caller chose otherwise: the model's
# matrices are small and runs already train clients in parallel worker
# processes, so more threads only oversubscribe the cores. Set before numpy
# loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

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
