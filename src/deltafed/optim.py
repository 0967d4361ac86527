"""AdamW with decoupled weight decay, global-norm clipping, and linear warmup.

The optimizer works on flat vectors: the trainable entries of a parameter
set, in lexicographic name order, end to end in one contiguous float64
vector (a FlatLayout). The gradient and both AdamW moments share that
layout. clip_gradients and adamw_step flatten their ParameterSet arguments
and run the same kernels that local_train_round runs on its own buffers, so
ParameterSets are only built where a round starts or ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, NumericalError, StructureError
from .model import LmModel, trainable_loss_and_grad
from .params import ParameterSet

BETA1, BETA2 = 0.9, 0.999  # AdamW moment decay rates
EPS = 1e-8


@dataclass(frozen=True)
class FlatLayout:
    """Names and shapes of the trainable entries, in flat-vector order."""

    names: tuple[str, ...]
    shapes: tuple[tuple[int, ...], ...]

    @staticmethod
    def of(params: ParameterSet) -> "FlatLayout":
        names = tuple(params.trainable_names())
        return FlatLayout(names, tuple(params.tensor(n).shape for n in names))

    @property
    def size(self) -> int:
        return sum(math.prod(s) for s in self.shapes)

    def views(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """Entry name -> shaped view into vec."""
        out = {}
        start = 0
        for name, shape in zip(self.names, self.shapes):
            end = start + math.prod(shape)
            out[name] = vec[start:end].reshape(shape)
            start = end
        return out

    def flatten(self, ps: ParameterSet, what: str) -> np.ndarray:
        """A new vector holding ps's values for this layout's entries."""
        parts = []
        for name, shape in zip(self.names, self.shapes):
            if name not in ps:
                raise StructureError(f"{what} missing trainable entry {name!r}")
            t = ps.tensor(name)
            if t.shape != shape:
                raise StructureError(
                    f"{what} entry {name!r} has shape {t.shape}, parameter has {shape}"
                )
            parts.append(t.data)
        return np.concatenate(parts) if parts else np.zeros(0)

    def largest(self, vec: np.ndarray) -> str:
        """The entry holding vec's largest magnitude; NaN counts as largest."""

        def magnitude(view: np.ndarray) -> float:
            top = float(np.max(np.abs(view), initial=0.0))
            return math.inf if math.isnan(top) else top

        views = self.views(vec)
        return max(self.names, key=lambda n: magnitude(views[n]), default="")


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

    The moments are two flat vectors laid out by `layout`; `m` and `v` map
    each entry name to its shaped view into them. local_train_round advances
    the vectors in place and hands them back in its returned state, so the
    state passed in must not be reused. The counter never resets between
    rounds: one client follows a single warmup trajectory no matter how the
    steps are sliced into rounds.
    """

    step: int
    layout: FlatLayout
    m_flat: np.ndarray
    v_flat: np.ndarray
    m: dict[str, np.ndarray] = field(init=False, repr=False)
    v: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", self.layout.views(self.m_flat))
        object.__setattr__(self, "v", self.layout.views(self.v_flat))


def init_state(params: ParameterSet) -> OptimizerState:
    layout = FlatLayout.of(params)
    return OptimizerState(0, layout, np.zeros(layout.size), np.zeros(layout.size))


def _require_layout(state: OptimizerState, layout: FlatLayout) -> None:
    if state.layout != layout:
        raise StructureError(
            f"optimizer state covers {state.layout}, the trainable entries are {layout}"
        )


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
    return math.sqrt(float(np.dot(g, g)))


def _nonfinite(
    layout: FlatLayout, g: np.ndarray, norm: float, context: str = ""
) -> NumericalError:
    """The error for a gradient whose norm is not finite, naming its top entry."""
    return NumericalError(
        f"{context}gradient norm {norm:g}; largest gradient in entry "
        f"{layout.largest(g)!r}"
    )


def _clip_flat(g: np.ndarray, norm: float, max_norm: float) -> bool:
    """Scale g (of 2-norm `norm`) down to max_norm; -> whether it was scaled."""
    if norm <= max_norm:
        return False
    g *= max_norm / norm
    return True


def _adamw_flat(
    p: np.ndarray,
    g: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    step: int,
    cfg: OptimizerConfig,
) -> None:
    """One AdamW update of p, m and v from the pre-increment counter `step`."""
    # lr is taken at the pre-increment counter, so the first warmup step is
    # a pure moment update (lr 0), matching the usual scheduler convention.
    lr = lr_at(step, cfg)
    t = step + 1
    m *= BETA1
    m += (1.0 - BETA1) * g
    v *= BETA2
    v += (1.0 - BETA2) * g * g
    m_hat = m / (1.0 - BETA1**t)
    v_hat = v / (1.0 - BETA2**t)
    p -= lr * cfg.weight_decay * p
    p -= lr * m_hat / (np.sqrt(v_hat) + EPS)


# -- ParameterSet front ends -----------------------------------------------------


def clip_gradients(grads: ParameterSet, max_norm: float) -> ParameterSet:
    if max_norm <= 0:
        raise ArgumentError(f"max_norm must be positive, got {max_norm}")
    layout = FlatLayout.of(grads)
    g = layout.flatten(grads, "gradients")
    norm = _grad_norm(g)
    if not math.isfinite(norm):
        raise _nonfinite(layout, g, norm)
    if not _clip_flat(g, norm, max_norm):
        return grads
    return grads.replace_values(layout.views(g))


def adamw_step(
    params: ParameterSet,
    grads: ParameterSet,
    state: OptimizerState,
    cfg: OptimizerConfig,
) -> tuple[ParameterSet, OptimizerState]:
    """One update; the state passed in is left as it was."""
    layout = FlatLayout.of(params)
    g = layout.flatten(grads, "gradients")
    _require_layout(state, layout)
    p = layout.flatten(params, "parameters")
    m, v = state.m_flat.copy(), state.v_flat.copy()
    _adamw_flat(p, g, m, v, state.step, cfg)
    return (
        params.replace_values(layout.views(p)),
        OptimizerState(state.step + 1, layout, m, v),
    )


def _epoch_batches(
    n: int, batch_size: int, rng: np.random.Generator
) -> list[np.ndarray]:
    order = rng.permutation(n)
    return [order[i : i + batch_size] for i in range(0, n, batch_size)]


def local_train_round(
    model: LmModel,
    state: OptimizerState,
    shard: list[list[int]],
    cfg: OptimizerConfig,
    rng: np.random.Generator,
    *,
    batch_size: int,
    steps: int,
) -> tuple[LmModel, OptimizerState, float]:
    """Run `steps` minibatch iterations over the shard, reshuffling per epoch.

    The trainable values, the gradient and the moments stay in flat vectors
    for the whole round; the model's ParameterSet is rebuilt once, at the
    end. Returns the updated model, the carried optimizer state, and the
    mean per-position training loss across the round's steps (nan when
    steps=0). A non-finite loss or gradient raises NumericalError naming the
    step and the entry with the largest gradient.
    """
    if not shard:
        raise ArgumentError("training shard is empty")
    if batch_size < 1:
        raise ArgumentError(f"batch_size must be >= 1, got {batch_size}")
    if steps < 0:
        raise ArgumentError(f"steps must be >= 0, got {steps}")
    params = model.params
    layout = FlatLayout.of(params)
    _require_layout(state, layout)
    p = layout.flatten(params, "parameters")
    g = np.empty_like(p)
    p_views, g_views = layout.views(p), layout.views(g)
    values = {name: params.array(name) for name in params.names()}
    values.update(p_views)

    step = state.step
    losses: list[float] = []
    pending: list[np.ndarray] = []
    for _ in range(steps):
        if not pending:
            pending = _epoch_batches(len(shard), batch_size, rng)
        idx = pending.pop(0)
        batch = [shard[i] for i in idx]
        loss, grads = trainable_loss_and_grad(model, batch, rng=rng, values=values)
        for name, view in g_views.items():
            view[...] = grads[name]
        norm = _grad_norm(g)
        if not (math.isfinite(loss) and math.isfinite(norm)):
            context = f"optimizer step {step + 1}: loss {loss:g}, "
            raise _nonfinite(layout, g, norm, context)
        _clip_flat(g, norm, cfg.max_grad_norm)
        _adamw_flat(p, g, state.m_flat, state.v_flat, step, cfg)
        step += 1
        losses.append(loss)
    if steps:
        model = model.with_params(params.replace_values(p_views))
    mean_loss = float(np.mean(losses)) if losses else float("nan")
    return model, OptimizerState(step, layout, state.m_flat, state.v_flat), mean_loss
