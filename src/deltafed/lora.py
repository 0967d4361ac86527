"""Low-rank adapters over 2-D model entries.

attach() freezes the whole base model and adds trainable factor pairs
A (m x r, gaussian init) and B (r x n, zero init) per target, so a freshly
adapted model computes exactly what the plain one did (A @ B == 0). The
effective weight is base + scaling * A @ B with scaling = alpha/r.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ArgumentError
from .model import SEED_LORA, LmModel
from .params import ParameterSet

LORA_INIT_STD = 0.02


@dataclass(frozen=True)
class LoraAdapter:
    target: str
    rank: int
    alpha: float
    dropout_p: float
    scaling: float

    def __post_init__(self):
        if self.rank < 1:
            raise ArgumentError(f"rank must be >= 1, got {self.rank}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ArgumentError(f"dropout must be in [0, 1), got {self.dropout_p}")


def attach(
    model: LmModel,
    targets: Sequence[str],
    rank: int,
    alpha: float,
    dropout_p: float = 0.0,
    seed: int = 0,
) -> LmModel:
    """Adapted copy of model: base frozen, factor entries added trainable.

    Freezing covers every pre-existing entry, not just the targets; after
    attach, only the ".lora.A"/".lora.B" entries train, so round deltas
    carry nothing else.
    """
    if model.adapters:
        raise ArgumentError("adapters already attached")
    names = list(dict.fromkeys(targets))
    if not names:
        raise ArgumentError("need at least one adapter target")
    p = model.params
    for t in names:
        if t not in p:
            raise ArgumentError(f"no entry named {t!r}")
        shape = p.array(t).shape
        if len(shape) != 2:
            raise ArgumentError(f"adapter target {t!r} must be 2-D, got shape {shape}")
        if rank > min(shape):
            raise ArgumentError(
                f"rank {rank} exceeds min dim of {t!r} {min(shape)}"
            )

    scaling = alpha / rank
    rng = np.random.default_rng([seed, SEED_LORA])
    entries = [(n, a, False) for n, a, _ in p.items()]
    meta = {}
    for t in sorted(names):
        m, n = p.array(t).shape
        entries.append((f"{t}.lora.A", rng.normal(0.0, LORA_INIT_STD, (m, rank)), True))
        entries.append((f"{t}.lora.B", np.zeros((rank, n)), True))
        meta[t] = LoraAdapter(t, rank, float(alpha), float(dropout_p), float(scaling))
    return LmModel(model.cfg, ParameterSet(entries), meta)
