"""Desk-scale federated fine-tuning with delta aggregation and LoRA adapters."""

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
    Tensor,
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
    "Tensor",
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
