"""Byte-level recurrent language model with hand-written gradients.

One tanh recurrence layer over byte embeddings, with the output projection
tied to the embedding matrix:

    h_i = tanh(U h_{i-1} + W[x_i] + b),   h_0 = 0
    P(x_{i+1} | x_1..x_i) = softmax(W h_i + out.b)

Entries: "embed.W" (V x d, tied embedding/output), "rnn.U" (d x d),
"rnn.b" (d), "out.b" (V). Internals are float64 throughout; gradients are
analytic and verified against central finite differences in the tests.

A step's arrays are small (a batch's logits are a few hundred positions by
a few dozen symbols), so the number of numpy calls sets its pace more than
the arithmetic does. A step therefore runs on a `Workspace`, built once per
round: every matrix product is written into it with `ndarray.dot(..., out=)`,
and all of a step's dropout masks come from one `rng.random` call, in the
order one call per mask would draw them. No numpy Python frame runs inside
a step: the kernels call the C entry points numpy's Python wrappers
dispatch to (`ndarray.dot` for `np.dot`, `ndarray.take` for `np.take`,
`np.maximum.reduce` for `np.max`, `np.add.reduce` for `np.sum` and
`ndarray.sum`), which run the same C code on the same operands, so each
call sheds its wrapper's microseconds and every result stays bitwise the
same.

The recurrences run in place: the forward pass gathers every step's input
term into its output slot and completes each slot with
`cur += prev @ U^T; tanh(cur)`, and the backward pass turns dL/dh into
dL/da in the same buffer, one `prev += da_i @ U; prev *= gate` per step.
Logits are vocab-major, (V, n) for n predicted positions, so the softmax's
max and sums run down the columns, a target's logit sits at flat index
`target * n + position`, and the output gradients come from the same
layout (`out.b`'s is the row sums, `dz @ h` the weight's).

Adapters (see lora.py) ride along as extra entries named
"<target>.lora.A"/"<target>.lora.B"; when present, every pass uses the adapted
effective weights and gradients flow to the factors only, with the base
receiving exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import ArgumentError
from .params import ParameterSet, pack

INIT_RANGE = 0.08  # uniform init half-width for weights
EVAL_BLOCK = 64  # windows per perplexity batch, so its temporaries stay small

# fixed sub-stream tags so every consumer of an experiment seed draws from
# its own independent generator
SEED_MODEL = 101
SEED_LORA = 202
SEED_PARTITION = 303
SEED_CLIENT = 404


@dataclass(frozen=True)
class Vocab:
    """Byte-level vocabulary: distinct corpus bytes in ascending order."""

    symbols: bytes

    def __post_init__(self):
        if len(self.symbols) < 2:
            raise ArgumentError("vocabulary needs at least 2 symbols")
        if list(self.symbols) != sorted(set(self.symbols)):
            raise ArgumentError("vocabulary symbols must be sorted and distinct")

    @staticmethod
    def from_corpus(data: bytes) -> "Vocab":
        counts = np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256)
        return Vocab(np.flatnonzero(counts).astype(np.uint8).tobytes())

    @property
    def size(self) -> int:
        return len(self.symbols)

    def encode(self, data: bytes) -> np.ndarray:
        unknown = data.translate(None, self.symbols)  # the bytes not in it
        if unknown:
            raise ArgumentError(f"byte 0x{unknown[0]:02x} not in vocabulary")
        table = np.zeros(256, dtype=np.uint8)  # byte -> id; ids fit a byte
        table[np.frombuffer(self.symbols, dtype=np.uint8)] = np.arange(self.size)
        return np.frombuffer(data.translate(table.tobytes()), dtype=np.uint8)

    def decode(self, ids: Sequence[int]) -> bytes:
        arr = np.asarray(ids, dtype=np.int64)
        if arr.size and (arr.min() < 0 or arr.max() >= self.size):
            raise ArgumentError("token id out of range")
        return bytes(np.frombuffer(self.symbols, dtype=np.uint8)[arr].tobytes())


@dataclass(frozen=True)
class LmConfig:
    vocab_size: int
    embed_dim: int
    context: int

    def __post_init__(self):
        if self.vocab_size < 2:
            raise ArgumentError(f"vocab_size must be >= 2, got {self.vocab_size}")
        if self.embed_dim < 2:
            raise ArgumentError(f"embed_dim must be >= 2, got {self.embed_dim}")
        if self.context < 2:
            raise ArgumentError(f"context must be >= 2, got {self.context}")


@dataclass(frozen=True)
class LmModel:
    cfg: LmConfig
    params: ParameterSet
    # target name -> adapter metadata (objects with .scaling and .dropout_p);
    # empty mapping means a plain model
    adapters: Mapping[str, object] = field(default_factory=dict)

    def with_params(self, params: ParameterSet) -> "LmModel":
        return replace(self, params=params)


def init_model(cfg: LmConfig, seed: int) -> LmModel:
    """Fresh model, weights uniform(-0.08, 0.08), output bias zero."""
    rng = np.random.default_rng([seed, SEED_MODEL])
    v, d = cfg.vocab_size, cfg.embed_dim
    values = {
        "embed.W": rng.uniform(-INIT_RANGE, INIT_RANGE, (v, d)),
        "rnn.U": rng.uniform(-INIT_RANGE, INIT_RANGE, (d, d)),
        "rnn.b": rng.uniform(-INIT_RANGE, INIT_RANGE, (d,)),
        "out.b": np.zeros(v),
    }
    entries = ((name, a.shape, True, a.reshape(-1)) for name, a in values.items())
    return LmModel(cfg, ParameterSet.from_vectors(*pack(entries)))


def id_array(ids) -> np.ndarray:
    """`ids` itself if it is an integer array, as a corpus's uint8 ids are,
    else its values as int64."""
    if isinstance(ids, np.ndarray) and ids.dtype.kind in "iu":
        return ids
    return np.asarray(ids, dtype=np.int64)


def _check_ids(cfg: LmConfig, ids: np.ndarray) -> None:
    if ids.size and (ids.min() < 0 or ids.max() >= cfg.vocab_size):
        raise ArgumentError("token id out of range for the model vocabulary")


@dataclass(frozen=True, eq=False)
class Windows:
    """Token windows as arrays: row r of `ids` holds window r's first
    `lengths[r]` tokens, then padding.

    A corpus split gives full windows of context+1 tokens and at most one
    shorter tail row (see data.sequences_of); a shard is a subset of those
    rows in its own order.
    """

    ids: np.ndarray  # (n, width), any integer dtype: uint8 from a corpus, int64 from lists
    lengths: np.ndarray  # (n,) int64, each in [2, width]
    widths: np.ndarray = field(init=False)  # the distinct lengths, ascending

    def __post_init__(self):
        object.__setattr__(self, "widths", np.flatnonzero(np.bincount(self.lengths)))

    def __len__(self) -> int:
        return len(self.lengths)

    def __reduce__(self):
        # a shard is a strided view; contiguous copies pickle without a
        # second one, and out of band (pickle protocol 5) without any
        return Windows, (np.ascontiguousarray(self.ids), np.ascontiguousarray(self.lengths))

    def rows(self, idx: np.ndarray) -> "Windows":
        return Windows(np.take(self.ids, idx, axis=0), self.lengths[idx])

    def batch(self, idx: np.ndarray) -> list[np.ndarray]:
        """The rows at `idx` as one (count, length) id matrix per distinct
        length, shortest first, each row kept in `idx` order within its
        matrix. A batch with no row shorter than the widest, as every batch
        of one-width windows and most of a shard with a tail row are, is
        gathered in one call."""
        top = self.widths[-1]
        if len(self.widths) > 1:
            lengths = self.lengths[idx]
            if np.minimum.reduce(lengths, initial=top) < top:
                groups = []
                for n in self.widths:
                    sel = idx[lengths == n]
                    if sel.size:
                        groups.append(self.ids[sel, :n])
                return groups
        return [self.ids[idx, :top]]

    def tolist(self) -> list[list[int]]:
        return [row[:n].tolist() for row, n in zip(self.ids, self.lengths)]


def as_windows(rows) -> Windows:
    """`rows` itself if it is Windows, else its 1-D id sequences, each of
    length >= 2, copied into Windows."""
    if isinstance(rows, Windows):
        return rows
    try:
        arrays = [np.asarray(r, dtype=np.int64) for r in rows]
    except (TypeError, ValueError):
        arrays = None
    if arrays is None or any(a.ndim != 1 or a.size < 2 for a in arrays):
        raise ArgumentError("every sequence must be 1-D with length >= 2")
    lengths = np.array([a.size for a in arrays], dtype=np.int64)
    ids = np.zeros((len(arrays), lengths.max(initial=0)), dtype=np.int64)
    for r, a in enumerate(arrays):
        ids[r, : a.size] = a
    return Windows(ids, lengths)


def check_windows(cfg: LmConfig, windows: Windows) -> None:
    """Every window fits the context, and every id the vocabulary."""
    if len(windows) and windows.widths[-1] > cfg.context + 1:
        raise ArgumentError(
            f"sequence length {windows.widths[-1]} exceeds context+1 = {cfg.context + 1}"
        )
    _check_ids(cfg, windows.ids)


class Workspace:
    """The arrays a training step writes into, built once for a model's
    layout and adapters and reused by every step of a round.

    It holds the step's dropout draw and masks, the adapted effective
    weights, buffers per window shape (one set per (batch, length) a group
    has, so a short or two-width batch gets its own), and, once a gradient
    is asked for, the gradient vector with its entry views and the
    accumulators of the effective weights' gradients. Every matrix product
    of a step is written into it with `ndarray.dot(..., out=)`, so a step
    allocates next to nothing, and what a step would otherwise work out
    each time (the adapters' factor entry names, a window group's position
    count) is worked out here once. Buffers are overwritten by the next
    call that uses them: a gradient returned from a step with a workspace
    lives only until the next step with that workspace.
    """

    def __init__(self, model: LmModel):
        v, d = model.cfg.vocab_size, model.cfg.embed_dim
        self.model = model
        self.vd = (v, d)
        # target -> its (A, B) factor entry names
        self.factors = {t: (f"{t}.lora.A", f"{t}.lora.B") for t in model.adapters}
        ad_w = model.adapters.get("embed.W")
        ad_u = model.adapters.get("rnn.U")
        p_w = ad_w.dropout_p if ad_w is not None else 0.0
        p_u = ad_u.dropout_p if ad_u is not None else 0.0
        # the masks in the order they are drawn: embed rows, embed columns,
        # U columns; one (draw, keep, mask, p) run per stretch with one p
        n_w = (v + d) * (p_w > 0)
        total = n_w + d * (p_u > 0)
        self.draw = np.empty(total)
        keep = np.empty(total, dtype=bool)
        masks = np.empty(total)
        bounds = [(0, total, p_w)] if p_w == p_u else [(0, n_w, p_w), (n_w, total, p_u)]
        self.runs = [(self.draw[lo:hi], keep[lo:hi], masks[lo:hi], p) for lo, hi, p in bounds if hi > lo]
        self.mask_lookup = masks[:v, None] if p_w > 0 else None
        self.mask_out = masks[v:n_w] if p_w > 0 else None
        self.mask_u = masks[n_w:] if p_u > 0 else None
        # adapted effective weights: the scaled factor product, and with
        # dropout the masked sums
        self.prod_w = np.empty((v, d)) if ad_w is not None else None
        self.w_lookup = np.empty((v, d)) if p_w > 0 else None
        self.w_out = np.empty((v, d)) if p_w > 0 else None
        self.prod_u = np.empty((d, d)) if ad_u is not None else None
        self.u = np.empty((d, d)) if p_u > 0 else None
        self._shapes: dict[tuple[int, int], _Shape] = {}

    def shape(self, bsz: int, length: int) -> "_Shape":
        """The buffers of a (bsz, length) window group."""
        buf = self._shapes.get((bsz, length))
        if buf is None:
            buf = self._shapes[bsz, length] = _Shape(bsz, length, *self.vd)
        return buf

    @cached_property
    def grads(self) -> "_Grads":
        return _Grads(self.model)


class _Shape:
    """Buffers of one (bsz, length) window group: the forward pass's, and
    once a gradient is asked for, the backward pass's. Positions are
    time-major, n = (length - 1) * bsz of them."""

    def __init__(self, bsz: int, length: int, v: int, d: int):
        steps = length - 1
        n = steps * bsz
        self.n = n
        self.hs = np.empty((steps, bsz, d))  # hidden states that predict
        self.rows = list(self.hs)
        self.hm = self.hs.reshape(n, d)
        self.carry = np.empty((bsz, d))  # one step's recurrent product
        self.z = np.empty((v, n))  # logits, vocab-major
        self.z_flat = self.z.reshape(-1)
        self.s = np.empty(n)  # the softmax's column sums
        self.col = np.empty(n)  # column maxima, target logits, then logs
        self.at = np.empty(n, dtype=np.int64)  # flat index of each target
        self.at_rows = self.at.reshape(steps, bsz)
        self.base = np.arange(n).reshape(steps, bsz)  # _flat_index's column term

    @cached_property
    def back(self) -> "_Back":
        return _Back(self)


class _Back:
    """Backward buffers of one window group."""

    def __init__(self, f: _Shape):
        steps, bsz, d = f.hs.shape
        self.da = np.empty((f.n, d))  # dL/dh, turned into dL/da in place
        self.da_rows = list(self.da.reshape(steps, bsz, d))
        self.da_head = self.da[bsz:].T  # the steps that carry from a state
        self.hs_tail = f.hm[: f.n - bsz]  # the states they carry from
        self.gate = np.empty((steps, bsz, d))
        self.gate_rows = list(self.gate)
        self.at = np.empty(f.n, dtype=np.int64)  # flat index of each input
        self.at_rows = self.at.reshape(steps, bsz)


class _Grads:
    """The gradient vector and its entry views, plus the accumulators of
    the effective weights' gradients; an accumulator a trained, unadapted
    entry has is its view of the vector, and one no entry needs is None."""

    def __init__(self, model: LmModel):
        v, d = model.cfg.vocab_size, model.cfg.embed_dim
        layout = model.params.layout
        self.g = np.zeros(layout.trainable_size)
        self.grad = layout.views(self.g)  # trainable entry name -> its view of g
        self.embed = "embed.W" in self.grad or "embed.W" in model.adapters
        adapted_u = "rnn.U" in model.adapters
        size = 2 * v * d * self.embed + d * d * adapted_u
        self.acc = np.zeros(size)
        self.d_w_lookup = self.acc[: v * d].reshape(v, d) if self.embed else None
        self.d_w_out = self.acc[v * d : 2 * v * d].reshape(v, d) if self.embed else None
        self.d_u = self.acc[size - d * d :].reshape(d, d) if adapted_u else self.grad.get("rnn.U")
        self.d_b = self.grad.get("rnn.b")
        self.d_c = self.grad.get("out.b")
        self.tmp_vd = np.empty((v, d))
        self.tmp_dd = np.empty((d, d))
        self.tmp_d = np.empty(d)
        self.tmp_v = np.empty(v)


@dataclass
class _Effective:
    """Per-call effective weights plus the dropout masks that shaped them."""

    w_lookup: np.ndarray
    w_out: np.ndarray
    u: np.ndarray
    b: np.ndarray
    c: np.ndarray
    mask_lookup: np.ndarray | None = None  # over vocab rows, as a column
    mask_out: np.ndarray | None = None     # over embed columns
    mask_u: np.ndarray | None = None       # over embed columns


def _adapter_product(values, factors: tuple[str, str], scaling: float, out: np.ndarray) -> np.ndarray:
    a, b = factors
    values[a].dot(values[b], out=out)
    out *= scaling
    return out


def _draw_masks(ws: Workspace, rng) -> None:
    """Every dropout mask of a step from one draw: inverted dropout, zero
    with probability p, else 1/(1-p)."""
    rng.random(out=ws.draw)
    for draw, keep, mask, p in ws.runs:
        np.greater_equal(draw, p, out=keep)
        np.multiply(keep, 1.0 / (1.0 - p), out=mask)


def _effective(model: LmModel, values: Mapping[str, np.ndarray], ws: Workspace, rng=None) -> _Effective:
    """Effective weights from `values` (entry name -> shaped array), written
    into `ws`; with rng, the adapters' dropout masks are drawn."""
    w = values["embed.W"]
    u = values["rnn.U"]
    eff = _Effective(w, w, u, values["rnn.b"], values["out.b"])
    masked = rng is not None and ws.draw.size > 0
    if masked:
        _draw_masks(ws, rng)

    ad_w = model.adapters.get("embed.W")
    if ad_w is not None:
        prod = _adapter_product(values, ws.factors["embed.W"], ad_w.scaling, ws.prod_w)
        if masked and ws.mask_lookup is not None:
            eff.mask_lookup, eff.mask_out = ws.mask_lookup, ws.mask_out
            eff.w_lookup = np.multiply(prod, eff.mask_lookup, out=ws.w_lookup)
            eff.w_lookup += w
            eff.w_out = np.multiply(prod, eff.mask_out, out=ws.w_out)
            eff.w_out += w
        else:
            prod += w
            eff.w_lookup = eff.w_out = prod

    ad_u = model.adapters.get("rnn.U")
    if ad_u is not None:
        prod = _adapter_product(values, ws.factors["rnn.U"], ad_u.scaling, ws.prod_u)
        if masked and ws.mask_u is not None:
            eff.mask_u = ws.mask_u
            eff.u = np.multiply(prod, eff.mask_u, out=ws.u)
            eff.u += u
        else:
            prod += u
            eff.u = prod

    return eff


def _recur(eff: _Effective, xt: np.ndarray, f: _Shape, h: np.ndarray | None = None) -> np.ndarray:
    """Hidden states for a time-major (steps, batch) id matrix, carried on
    from the (batch, d) states `h` (zeros if None), written into f.hs.

    Each step's input term is gathered into its output slot, which the step
    then completes in place: cur += prev @ U^T, tanh(cur)."""
    eff.w_lookup.take(xt, axis=0, out=f.hs, mode="clip")  # ids are checked
    f.hs += eff.b
    # the transposed view, not a contiguous copy: BLAS sums some shapes
    # (batch 1, d = 64) in another order for the copy
    u_t, carry, tanh = eff.u.T, f.carry, np.tanh
    prev = h
    for cur in f.rows:
        if prev is not None:
            cur += prev.dot(u_t, out=carry)
        tanh(cur, out=cur)
        prev = cur
    return f.hs


def _log_softmax(z: np.ndarray) -> np.ndarray:
    m = np.maximum.reduce(z, axis=-1, keepdims=True)
    return z - m - np.log(np.add.reduce(np.exp(z - m), axis=-1, keepdims=True))


def _nll(eff: _Effective, x: np.ndarray, f: _Shape) -> float:
    """Summed next-token NLL of a (batch, length) id matrix.

    Leaves in f the hidden states (length-1, batch, d) that emit the
    predictions, exp of the max-shifted logits (V, n) in f.z, their column
    sums in f.s and each target's flat index into them in f.at, all
    positions in time-major order.
    """
    xt = x.T
    _recur(eff, xt[:-1], f)
    z = eff.w_out.dot(f.hm.T, out=f.z)  # vocab-major: reductions run down columns
    z += eff.c[:, None]
    z -= np.maximum.reduce(z, axis=0, out=f.col)
    _flat_index(xt[1:], f.base, f.at_rows)
    target_logits = np.add.reduce(f.z_flat.take(f.at, out=f.col, mode="clip"))
    np.exp(z, out=z)
    s = np.add.reduce(z, axis=0, out=f.s)
    return float(np.add.reduce(np.log(s, out=f.col)) - target_logits)


def _flat_index(ids: np.ndarray, base: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Flat index of (ids[i, j], k) in a C-ordered (V, n) array, k the
    position i * bsz + j that `base` (k's (steps, bsz) grid) holds.

    The one place ids are widened: the product is formed in int64, since
    uint8 ids times a Python int of 255 or less would multiply in uint8 and
    wrap, and the clipped take of the target logits would hide it."""
    np.multiply(ids, base.size, out=out, dtype=np.int64)
    out += base
    return out


def trainable_loss_and_grad(
    model: LmModel,
    groups: list[np.ndarray],
    rng=None,
    values: Mapping[str, np.ndarray] | None = None,
    ws: Workspace | None = None,
) -> tuple[float, np.ndarray]:
    """Mean NLL over all predicted positions, plus its analytic gradient as
    one vector laid out as model.params' trainable vector.

    `groups` is a batch as `Windows.batch` gives it, from windows that
    passed `check_windows`. `values` (entry name -> shaped array) stands in
    for model.params' values, so a training loop can pass views of its own
    buffers; model.params still supplies the layout. Pass rng to enable
    adapter dropout (training); without it the pass is deterministic. `ws`,
    a Workspace of this model, holds the step's arrays, and the returned
    gradient is its vector; without one, the call builds its own.
    """
    if values is None:
        values = model.params.arrays()
    if ws is None:
        ws = Workspace(model)
    eff = _effective(model, values, ws, rng)
    gb = ws.grads
    gb.g.fill(0.0)
    gb.acc.fill(0.0)

    total_nll = 0.0
    shapes = [ws.shape(*x.shape) for x in groups]
    inv = 1.0 / sum(f.n for f in shapes)
    for x, f in zip(groups, shapes):
        total_nll += _nll(eff, x, f)
        _backward(eff, x, f, gb, inv)

    _assemble_grads(model, eff, values, ws)
    return total_nll * inv, gb.g


def _backward(eff: _Effective, x: np.ndarray, f: _Shape, gb: _Grads, inv: float) -> None:
    """Adds one group's gradient, from what _nll left in f, to gb."""
    b = f.back
    # softmax minus one-hot, (V, n), already divided by the position count
    dz = f.z
    dz *= np.divide(inv, f.s, out=f.s)
    f.z_flat[f.at] -= inv
    if gb.d_c is not None:
        gb.d_c += np.add.reduce(dz, axis=1, out=gb.tmp_v)
    if gb.embed:
        gb.d_w_out += dz.dot(f.hm, out=gb.tmp_vd)
    da = dz.T.dot(eff.w_out, out=b.da)  # dL/dh, then dL/da
    gate = np.multiply(f.hs, f.hs, out=b.gate)
    np.subtract(1.0, gate, out=gate)

    # only the carry recursion runs step by step, in place in da
    rows, gates, u, carry = b.da_rows, b.gate_rows, eff.u, f.carry
    rows[-1] *= gates[-1]
    for i in range(len(rows) - 1, 0, -1):
        prev = rows[i - 1]
        prev += rows[i].dot(u, out=carry)
        prev *= gates[i - 1]

    if gb.d_b is not None:
        gb.d_b += np.add.reduce(da, axis=0, out=gb.tmp_d)
    if gb.d_u is not None:
        gb.d_u += b.da_head.dot(b.hs_tail, out=gb.tmp_dd)
    if gb.embed:
        # scatter-add of every step's da onto its input row, as one matmul
        # with the (V, n) one-hot input matrix, built in dz's spent buffer
        # (several times faster than np.add.at)
        dz.fill(0.0)
        _flat_index(x.T[:-1], f.base, b.at_rows)
        f.z_flat[b.at] = 1.0
        gb.d_w_lookup += dz.dot(da, out=gb.tmp_vd)


def _assemble_grads(model, eff, values, ws: Workspace) -> None:
    """Gradients of the effective weights -> ws.grads.grad, views of the
    stored trainable entries, where the rest already accumulated theirs. An
    adapted base entry gets none: only its factors see the gradient. The
    accumulators are spent in place."""
    gb = ws.grads
    grad = gb.grad
    ad_w = model.adapters.get("embed.W")
    if ad_w is None:
        if "embed.W" in grad:
            np.add(gb.d_w_lookup, gb.d_w_out, out=grad["embed.W"])
    else:
        dp = gb.d_w_lookup
        if eff.mask_lookup is not None:
            dp *= eff.mask_lookup
            gb.d_w_out *= eff.mask_out
        dp += gb.d_w_out
        dp *= ad_w.scaling
        _factor_grads(grad, values, ws.factors["embed.W"], dp)

    ad_u = model.adapters.get("rnn.U")
    if ad_u is not None:
        dp = gb.d_u
        if eff.mask_u is not None:
            dp *= eff.mask_u
        dp *= ad_u.scaling
        _factor_grads(grad, values, ws.factors["rnn.U"], dp)


def _factor_grads(grad, values, factors: tuple[str, str], dp: np.ndarray) -> None:
    """The factors' gradients from dp, the scaled gradient of their product."""
    a, b = factors
    if a in grad:
        dp.dot(values[b].T, out=grad[a])
    if b in grad:
        values[a].T.dot(dp, out=grad[b])


def perplexity_of(model: LmModel, ids: Sequence[int]) -> float:
    """exp of the mean NLL over every predicted position, in windows.

    The id stream is cut into windows of the model's context + 1 tokens
    overlapping by one, so each token after the first is predicted exactly
    once. Full windows are scored EVAL_BLOCK at a time, as strided views of
    the stream, so the memory an evaluation takes does not grow with it.
    """
    arr = id_array(ids)
    if arr.ndim != 1 or arr.size < 2:
        raise ArgumentError("perplexity needs at least 2 tokens")
    ctx = model.cfg.context
    _check_ids(model.cfg, arr)

    ws = Workspace(model)
    eff = _effective(model, model.params.arrays(), ws)
    total_nll = 0.0
    total_positions = 0

    def accumulate(x: np.ndarray):
        nonlocal total_nll, total_positions
        total_nll += _nll(eff, x, ws.shape(*x.shape))
        total_positions += x.shape[0] * (x.shape[1] - 1)

    n_full = (arr.size - 1) // ctx
    step = arr.strides[0]
    full = np.lib.stride_tricks.as_strided(
        arr, (n_full, ctx + 1), (ctx * step, step), writeable=False
    )
    for lo in range(0, n_full, EVAL_BLOCK):
        accumulate(full[lo : lo + EVAL_BLOCK])
    tail = arr[n_full * ctx :]
    if tail.size >= 2:
        accumulate(tail[None, :])
    return float(np.exp(total_nll / total_positions))


def greedy_decode(model: LmModel, prefix, n_tokens: int) -> np.ndarray:
    """Extend each prefix row by n_tokens argmax picks (ties to the lowest id).

    `prefix` is a (b, cut) id matrix, one prefix per row, or one 1-D prefix;
    the picks come back as (b, n_tokens), or (n_tokens,). Each pick is the
    argmax of P(. | the row's last `context` ids), as the model scores one
    window in evaluation mode. While a row fits the context its hidden state
    is carried, so a pick costs one recurrence step for all rows; past that,
    each pick runs the last `context` ids afresh.
    """
    if n_tokens < 0:
        raise ArgumentError("n_tokens must be >= 0")
    ids = id_array(prefix)
    rows = ids[None, :] if ids.ndim == 1 else ids
    if rows.ndim != 2 or rows.size == 0:
        raise ArgumentError("prefix must be non-empty")
    _check_ids(model.cfg, rows)
    ctx = model.cfg.context
    b, cut = rows.shape
    seq = np.empty((b, cut + n_tokens), dtype=np.int64)
    seq[:, :cut] = rows
    ws = Workspace(model)
    eff = _effective(model, model.params.arrays(), ws)
    h, done = None, 0  # h: the states after seq[:, :done]
    for end in range(cut, cut + n_tokens):
        if end > ctx:  # the window slides: run its ids from a zero state
            h, done = None, end - ctx
        # a copy: the states live in the workspace, which the next pick
        # may overwrite before it reads h
        h = _recur(eff, seq[:, done:end].T, ws.shape(b, end - done + 1), h)[-1].copy()
        done = end
        probs = np.exp(_log_softmax(h @ eff.w_out.T + eff.c))
        seq[:, end] = probs.argmax(axis=1)
    picks = seq[:, cut:]
    return picks[0] if ids.ndim == 1 else picks
