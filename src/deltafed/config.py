"""Experiment configuration: flat key=value files with strict validation."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from importlib import resources
from pathlib import Path
from typing import get_type_hints

from .aggregate import (
    AGG_FEDAVG,
    AGG_GRADUALDIFF,
    FORM_DENSE,
    FORM_FACTORS,
    WEIGHT_SAMPLES,
    WEIGHT_UNIFORM,
)
from .errors import ConfigError

BUNDLED_CORPUS = "bundled"
MODES = ("federated", "central", "local")
TRANSPORTS = ("memory", "tcp")


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = "federated"
    rounds: int = 15
    clients: int = 5
    seed: int = 0
    corpus_path: str = BUNDLED_CORPUS
    split: float = 0.9
    context: int = 16
    embed_dim: int = 16
    lr: float = 5e-5
    weight_decay: float = 0.001
    max_grad_norm: float = 0.3
    warmup_ratio: float = 0.03
    batch_size: int = 8
    local_epochs: int = 1
    lora_rank: int = 4
    lora_alpha: float = 8.0
    lora_dropout: float = 0.1
    lora_targets: str = "embed.W,rnn.U"
    aggregation: str = AGG_GRADUALDIFF
    delta_form: str = FORM_FACTORS
    delta_weighting: str = WEIGHT_UNIFORM
    quantize_payload: bool = False
    transport: str = "memory"
    tcp_host: str = "127.0.0.1"
    tcp_port: int = 0
    output_dir: str = "runs"

    def __post_init__(self) -> None:
        for key, kind in _TYPES.items():
            if kind is float:
                _require(math.isfinite(getattr(self, key)), key, getattr(self, key))
        _require(self.mode in MODES, "mode", self.mode)
        _require(self.rounds >= 0, "rounds", self.rounds)
        _require(self.clients >= 1, "clients", self.clients)
        _require(self.seed >= 0, "seed", self.seed)
        _require(0.0 < self.split < 1.0, "split", self.split)
        _require(self.context >= 2, "context", self.context)
        _require(self.embed_dim >= 2, "embed_dim", self.embed_dim)
        _require(self.lr > 0, "lr", self.lr)
        _require(self.weight_decay >= 0, "weight_decay", self.weight_decay)
        _require(self.max_grad_norm > 0, "max_grad_norm", self.max_grad_norm)
        _require(0.0 <= self.warmup_ratio < 1.0, "warmup_ratio", self.warmup_ratio)
        _require(self.batch_size >= 1, "batch_size", self.batch_size)
        _require(self.local_epochs >= 1, "local_epochs", self.local_epochs)
        _require(self.lora_rank >= 0, "lora_rank", self.lora_rank)
        _require(self.lora_alpha > 0, "lora_alpha", self.lora_alpha)
        _require(0.0 <= self.lora_dropout < 1.0, "lora_dropout", self.lora_dropout)
        _require(
            self.aggregation in (AGG_GRADUALDIFF, AGG_FEDAVG),
            "aggregation",
            self.aggregation,
        )
        _require(
            self.delta_form in (FORM_FACTORS, FORM_DENSE), "delta_form", self.delta_form
        )
        _require(
            self.delta_weighting in (WEIGHT_UNIFORM, WEIGHT_SAMPLES),
            "delta_weighting",
            self.delta_weighting,
        )
        _require(self.transport in TRANSPORTS, "transport", self.transport)
        _require(0 <= self.tcp_port <= 65535, "tcp_port", self.tcp_port)
        if self.lora_rank >= 1:
            _require(bool(self.targets()), "lora_targets", self.lora_targets)
        if self.delta_form == FORM_DENSE:
            _require(
                self.lora_rank >= 1,
                "delta_form",
                "dense deltas need lora_rank >= 1",
            )

    def targets(self) -> list[str]:
        return [t.strip() for t in self.lora_targets.split(",") if t.strip()]

    def resolved_corpus_path(self) -> Path:
        if self.corpus_path == BUNDLED_CORPUS:
            return Path(str(resources.files("deltafed") / "assets" / "corpus.txt"))
        return Path(self.corpus_path)


def _require(ok: bool, key: str, value) -> None:
    if not ok:
        raise ConfigError(f"invalid value for {key!r}: {value!r}")


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low not in ("true", "false"):
        raise ValueError(raw)
    return low == "true"


_TYPES = get_type_hints(ExperimentConfig)  # key -> its field's declared type
_PARSERS = {bool: _parse_bool, int: int, float: float, str: str}


def _coerce(key: str, raw: str):
    try:
        return _PARSERS[_TYPES[key]](raw)
    except ValueError:
        raise ConfigError(f"invalid value for {key!r}: {raw!r}") from None


def parse_config(text: str) -> ExperimentConfig:
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _TYPES:
            raise ConfigError(f"unknown key {key!r}")
        if key in values:
            raise ConfigError(f"duplicate key {key!r}")
        values[key] = _coerce(key, raw)
    return ExperimentConfig(**values)


def load_config(path: str | Path) -> ExperimentConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    cfg = parse_config(p.read_text())
    corpus = cfg.resolved_corpus_path()
    if not corpus.is_file():
        raise ConfigError(f"corpus file not found: {corpus}")
    return cfg


def save_config(cfg: ExperimentConfig, path: str | Path) -> Path:
    lines = []
    for f in sorted(fields(ExperimentConfig), key=lambda f: f.name):
        value = getattr(cfg, f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{f.name}={value}")
    p = Path(path)
    p.write_text("\n".join(lines) + "\n")
    return p


def override(cfg: ExperimentConfig, **changes) -> ExperimentConfig:
    changes = {k: v for k, v in changes.items() if v is not None}
    return replace(cfg, **changes) if changes else cfg
