"""AdamW with decoupled weight decay, global-norm clipping, and linear warmup.

The optimizer works on a parameter set's trainable vector
(`ParameterSet.trainable_flat`: the trainable entries, in lexicographic name
order, end to end). The gradient and both AdamW moments are vectors laid
out the same way. local_train_round steps a copy of the round-start vector
in place and hands it to a set that shares the round-start layout and
frozen vector. The state's layout must be the parameters' trainable entries
alone; `params.check_layout` raises a StructureError naming the entry that
is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

import numpy as np

from .errors import ArgumentError, NumericalError
from .model import (
    LmModel,
    Windows,
    Workspace,
    as_windows,
    check_windows,
    trainable_loss_and_grad,
)
from .params import Layout, ParameterSet, check_layout

BETA1, BETA2 = 0.9, 0.999  # AdamW moment decay rates
EPS = 1e-8


@dataclass(frozen=True)
class OptimizerConfig:
    lr: float
    total_steps: int
    weight_decay: float = 0.001
    max_grad_norm: float = 0.3
    warmup_ratio: float = 0.03

    def __post_init__(self) -> None:
        if self.lr <= 0:
            raise ArgumentError(f"lr must be positive, got {self.lr}")
        if self.total_steps < 1:
            raise ArgumentError(f"total_steps must be >= 1, got {self.total_steps}")
        if not 0.0 <= self.warmup_ratio < 1.0:
            raise ArgumentError(
                f"warmup_ratio must be in [0, 1), got {self.warmup_ratio}"
            )
        if self.max_grad_norm <= 0:
            raise ArgumentError(
                f"max_grad_norm must be positive, got {self.max_grad_norm}"
            )

    @property
    def warmup_steps(self) -> int:
        return math.ceil(self.warmup_ratio * self.total_steps)


@dataclass(frozen=True, eq=False)
class OptimizerState:
    """AdamW moments of the trainable entries plus the global step counter.

    The moments are two vectors laid out as the trainable vector of
    `layout`, the trainable entries' layout (`layout.views` names their
    parts). local_train_round advances the vectors in place and hands them
    back in its returned state, so the state passed in must not be reused.
    The counter never resets between rounds: one client follows a single
    warmup trajectory no matter how the steps are sliced into rounds.
    """

    step: int
    layout: Layout
    m_flat: np.ndarray
    v_flat: np.ndarray


def init_state(params: ParameterSet) -> OptimizerState:
    layout = params.layout.trainable_only
    n = layout.trainable_size
    return OptimizerState(0, layout, np.zeros(n), np.zeros(n))


def lr_at(step: int, cfg: OptimizerConfig) -> float:
    """Linear ramp 0 -> lr over the warmup window, constant lr afterwards."""
    if step < 0:
        raise ArgumentError(f"step must be >= 0, got {step}")
    w = cfg.warmup_steps
    if w == 0 or step >= w:
        return cfg.lr
    return cfg.lr * step / w


# -- flat kernels: in place on contiguous float64 vectors ----------------------


def _grad_norm(g: np.ndarray) -> float:
    return math.sqrt(float(g.dot(g)))


def _nonfinite(
    layout: Layout, g: np.ndarray, norm: float, context: str = ""
) -> NumericalError:
    """The error for a gradient whose norm is not finite, naming the entry
    that holds its largest magnitude (NaN counts as largest)."""
    top = int(np.argmax(np.where(np.isnan(g), np.inf, np.abs(g))))
    name = next(n for n, (f, lo, hi, _) in layout.slots.items() if f and lo <= top < hi)
    return NumericalError(f"{context}gradient norm {norm:g}; largest gradient in entry {name!r}")


def _clip_flat(g: np.ndarray, norm: float, max_norm: float) -> None:
    """Scale g (of 2-norm `norm`) down to max_norm if it is above it."""
    if norm > max_norm:
        g *= max_norm / norm


def _adamw_flat(
    p: np.ndarray,
    g: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    step: int,
    cfg: OptimizerConfig,
    scratch: np.ndarray,
) -> None:
    """One AdamW update of p, m and v from the pre-increment counter `step`.

    `scratch` is a (2, p.size) array the update's intermediates are written
    into, in the order the formula computes them."""
    # lr is taken at the pre-increment counter, so the first warmup step is
    # a pure moment update (lr 0), matching the usual scheduler convention.
    lr = lr_at(step, cfg)
    t = step + 1
    s1, s2 = scratch
    m *= BETA1
    m += np.multiply(g, 1.0 - BETA1, out=s1)
    v *= BETA2
    np.multiply(g, 1.0 - BETA2, out=s1)
    v += np.multiply(s1, g, out=s1)
    p -= np.multiply(p, lr * cfg.weight_decay, out=s1)
    m_hat = np.divide(m, 1.0 - BETA1**t, out=s1)
    v_hat = np.divide(v, 1.0 - BETA2**t, out=s2)
    denom = np.sqrt(v_hat, out=s2)
    denom += EPS
    m_hat *= lr
    p -= np.divide(m_hat, denom, out=s1)


def _batch_order(n: int, batch_size: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Row indices of each step's batch, epoch after epoch: an epoch's
    permutation is drawn as its first batch is asked for."""
    while True:
        order = rng.permutation(n)
        for i in range(0, n, batch_size):
            yield order[i : i + batch_size]


def local_train_round(
    model: LmModel,
    state: OptimizerState,
    shard: Windows,
    cfg: OptimizerConfig,
    rng: np.random.Generator,
    *,
    batch_size: int,
    steps: int,
) -> tuple[LmModel, OptimizerState, float]:
    """Run `steps` minibatch iterations over the shard, reshuffling per epoch.

    The shard (Windows, or id sequences made into Windows here) is checked
    against the model once; each step gathers its batch by row index. The
    trainable values, the gradient and the moments stay in flat vectors
    for the whole round, and every step writes into one model.Workspace
    and one pair of AdamW scratch vectors built here; the trained model's
    ParameterSet takes the values vector over at the end and shares the
    round-start layout and frozen vector. Returns the updated model, the carried optimizer state, and the
    mean per-position training loss across the round's steps (nan when
    steps=0). A non-finite loss or gradient raises NumericalError naming the
    step and the entry with the largest gradient.
    """
    windows = as_windows(shard)
    if not len(windows):
        raise ArgumentError("training shard is empty")
    if batch_size < 1:
        raise ArgumentError(f"batch_size must be >= 1, got {batch_size}")
    if steps < 0:
        raise ArgumentError(f"steps must be >= 0, got {steps}")
    params = model.params
    check_layout(params.layout.trainable_only, state.layout)
    check_windows(model.cfg, windows)
    p = params.trainable_flat.copy()
    values = params.arrays(trainable=p)
    ws = Workspace(model)
    scratch = np.empty((2, p.size))

    step = state.step
    losses: list[float] = []
    for idx in islice(_batch_order(len(windows), batch_size, rng), steps):
        batch = windows.batch(idx)
        loss, g = trainable_loss_and_grad(model, batch, rng=rng, values=values, ws=ws)
        norm = _grad_norm(g)
        if not (math.isfinite(loss) and math.isfinite(norm)):
            context = f"optimizer step {step + 1}: loss {loss:g}, "
            raise _nonfinite(state.layout, g, norm, context)
        _clip_flat(g, norm, cfg.max_grad_norm)
        _adamw_flat(p, g, state.m_flat, state.v_flat, step, cfg, scratch)
        step += 1
        losses.append(loss)
    if steps:
        model = model.with_params(params.with_trainable(p))
    mean_loss = float(np.mean(losses)) if losses else float("nan")
    return model, OptimizerState(step, state.layout, state.m_flat, state.v_flat), mean_loss
