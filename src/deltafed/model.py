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
the arithmetic does. The recurrences therefore run in place: the forward
pass gathers every step's input term into its output slot and completes
each slot with `cur += prev @ U^T; tanh(cur)`, and the backward pass turns
dL/dh into dL/da in the same buffer, one `prev += da_i @ U; prev *= gate`
per step. Logits are vocab-major, (V, n) for n predicted positions, so the
softmax's max and sums run down the columns, a target's logit sits at flat
index `target * n + position`, and the output gradients come from the same
layout (`out.b`'s is the row sums, `dz @ h` the weight's).

Adapters (see lora.py) ride along as extra entries named
"<target>.lora.A"/"<target>.lora.B"; when present, every pass uses the adapted
effective weights and gradients flow to the factors only, with the base
receiving exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
        return np.frombuffer(data.translate(table.tobytes()), dtype=np.uint8).astype(np.int64)

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

    ids: np.ndarray  # (n, width) int64
    lengths: np.ndarray  # (n,) int64, each in [2, width]
    widths: np.ndarray = field(init=False)  # the distinct lengths, ascending

    def __post_init__(self):
        object.__setattr__(self, "widths", np.flatnonzero(np.bincount(self.lengths)))

    def __len__(self) -> int:
        return len(self.lengths)

    def rows(self, idx: np.ndarray) -> "Windows":
        return Windows(np.take(self.ids, idx, axis=0), self.lengths[idx])

    def batch(self, idx: np.ndarray) -> list[np.ndarray]:
        """The rows at `idx` as one (count, length) id matrix per distinct
        length, shortest first, each row kept in `idx` order within its
        matrix."""
        if len(self.widths) == 1:
            return [self.ids[idx, : self.widths[0]]]
        lengths = self.lengths[idx]
        groups = []
        for n in self.widths:
            sel = idx[lengths == n]
            if sel.size:
                groups.append(self.ids[sel, :n])
        return groups

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


def _adapter_product(values: Mapping[str, np.ndarray], target: str, scaling: float) -> np.ndarray:
    return scaling * (values[f"{target}.lora.A"] @ values[f"{target}.lora.B"])


def _dropout_mask(rng, size: int, p: float) -> np.ndarray:
    # inverted dropout: zero with probability p, else 1/(1-p)
    return (rng.random(size) >= p) * (1.0 / (1.0 - p))


@dataclass
class _Effective:
    """Per-call effective weights plus the dropout masks that shaped them."""

    w_lookup: np.ndarray
    w_out: np.ndarray
    u: np.ndarray
    b: np.ndarray
    c: np.ndarray
    mask_lookup: np.ndarray | None = None  # over vocab rows
    mask_out: np.ndarray | None = None     # over embed columns
    mask_u: np.ndarray | None = None       # over embed columns


def _effective(model: LmModel, values: Mapping[str, np.ndarray], rng=None) -> _Effective:
    """Effective weights from `values` (entry name -> shaped array)."""
    w = values["embed.W"]
    u = values["rnn.U"]
    eff = _Effective(w, w, u, values["rnn.b"], values["out.b"])

    ad_w = model.adapters.get("embed.W")
    if ad_w is not None:
        prod = _adapter_product(values, "embed.W", ad_w.scaling)
        if rng is not None and ad_w.dropout_p > 0:
            eff.mask_lookup = _dropout_mask(rng, w.shape[0], ad_w.dropout_p)
            eff.mask_out = _dropout_mask(rng, w.shape[1], ad_w.dropout_p)
            eff.w_lookup = w + prod * eff.mask_lookup[:, None]
            eff.w_out = w + prod * eff.mask_out[None, :]
        else:
            eff.w_lookup = eff.w_out = w + prod

    ad_u = model.adapters.get("rnn.U")
    if ad_u is not None:
        prod = _adapter_product(values, "rnn.U", ad_u.scaling)
        if rng is not None and ad_u.dropout_p > 0:
            eff.mask_u = _dropout_mask(rng, u.shape[1], ad_u.dropout_p)
            eff.u = u + prod * eff.mask_u[None, :]
        else:
            eff.u = u + prod

    return eff


def _recur(eff: _Effective, xt: np.ndarray, h: np.ndarray | None = None) -> np.ndarray:
    """Hidden states for a time-major (steps, batch) id matrix, carried on
    from the (batch, d) states `h` (zeros if None); returns (steps, batch, d).

    Each step's input term is gathered into its output slot, which the step
    then completes in place: cur += prev @ U^T, tanh(cur)."""
    hs = eff.w_lookup[xt]  # input term of every step at once
    hs += eff.b
    # the transposed view, not a contiguous copy: BLAS sums some shapes
    # (batch 1, d = 64) in another order for the copy
    u_t = eff.u.T
    prev = h
    for cur in hs:
        if prev is not None:
            cur += prev @ u_t
        np.tanh(cur, out=cur)
        prev = cur
    return hs


def _log_softmax(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=-1, keepdims=True)
    return z - m - np.log(np.exp(z - m).sum(axis=-1, keepdims=True))


def _nll(eff: _Effective, x: np.ndarray):
    """Summed next-token NLL of a (batch, length) id matrix.

    -> (nll, hidden states (length-1, batch, d) that emit the predictions,
    exp of the max-shifted logits (V, n) with n = (length-1) * batch, their
    column sums (n,), the flat index into them of each target (n,)), all
    positions in time-major order.
    """
    xt = x.T
    hs = _recur(eff, xt[:-1])
    n = hs.shape[0] * hs.shape[1]
    z = eff.w_out @ hs.reshape(n, -1).T  # vocab-major: reductions run down columns
    z += eff.c[:, None]
    z -= z.max(axis=0)
    at_target = _flat_index(xt[1:].reshape(n), n)
    target_logits = z.take(at_target).sum()
    e = np.exp(z, out=z)
    s = e.sum(axis=0)
    nll = float(np.log(s).sum() - target_logits)
    return nll, hs, e, s, at_target


def _flat_index(ids: np.ndarray, n: int) -> np.ndarray:
    """Flat index of (ids[k], k) in a C-ordered (V, n) array."""
    at = ids * n
    at += np.arange(n)
    return at


def trainable_loss_and_grad(
    model: LmModel,
    groups: list[np.ndarray],
    rng=None,
    values: Mapping[str, np.ndarray] | None = None,
) -> tuple[float, np.ndarray]:
    """Mean NLL over all predicted positions, plus its analytic gradient as
    one vector laid out as model.params' trainable vector.

    `groups` is a batch as `Windows.batch` gives it, from windows that
    passed `check_windows`. `values` (entry name -> shaped array) stands in
    for model.params' values, so a training loop can pass views of its own
    buffers; model.params still supplies the layout. Pass rng to enable
    adapter dropout (training); without it the pass is deterministic.
    """
    if values is None:
        values = model.params.arrays()
    eff = _effective(model, values, rng)
    v, d = eff.w_lookup.shape
    layout = model.params.layout
    g = np.zeros(layout.trainable_size)
    grad = layout.views(g)  # trainable entry name -> its view of g

    total_nll = 0.0
    inv = 1.0 / sum(x.size - x.shape[0] for x in groups)
    d_w_lookup = np.zeros((v, d))
    d_w_out = np.zeros((v, d))
    # a trained, unadapted entry accumulates straight into its gradient
    trained_u = "rnn.U" in grad and "rnn.U" not in model.adapters
    d_u = grad["rnn.U"] if trained_u else np.zeros((d, d))
    d_b = grad["rnn.b"] if "rnn.b" in grad else np.zeros(d)
    d_c = grad["out.b"] if "out.b" in grad else np.zeros(v)

    for x in groups:
        nll, hs, dz, s, at_target = _nll(eff, x)
        total_nll += nll
        steps, bsz = hs.shape[:2]
        n = steps * bsz
        hm = hs.reshape(n, d)
        # softmax minus one-hot, (V, n), already divided by the position count
        dz *= inv / s
        dz.reshape(-1)[at_target] -= inv
        d_c += dz.sum(axis=1)
        d_w_out += dz @ hm
        da = (dz.T @ eff.w_out).reshape(steps, bsz, d)  # dL/dh, then dL/da
        gate = np.multiply(hs, hs)
        np.subtract(1.0, gate, out=gate)

        # only the carry recursion runs step by step, in place in da
        da[-1] *= gate[-1]
        for i in range(steps - 1, 0, -1):
            prev = da[i - 1]
            prev += da[i] @ eff.u
            prev *= gate[i - 1]

        da2 = da.reshape(n, d)
        d_b += da2.sum(axis=0)
        d_u += da[1:].reshape(-1, d).T @ hs[:-1].reshape(-1, d)
        # scatter-add of every step's da onto its input row, as one matmul
        # with the (V, n) one-hot input matrix, built in dz's spent buffer
        # (several times faster than np.add.at)
        onehot = dz
        onehot.fill(0.0)
        onehot.reshape(-1)[_flat_index(x.T[:-1].reshape(n), n)] = 1.0
        d_w_lookup += onehot @ da2

    _assemble_grads(model, eff, values, grad, d_w_lookup, d_w_out, d_u)
    return total_nll * inv, g


def _assemble_grads(model, eff, values, grad, d_w_lookup, d_w_out, d_u) -> None:
    """Gradients of the effective weights -> `grad`, views of the stored
    trainable entries, where the rest already accumulated theirs. An adapted
    base entry gets none: only its factors see the gradient."""
    ad_w = model.adapters.get("embed.W")
    if ad_w is None:
        if "embed.W" in grad:
            np.add(d_w_lookup, d_w_out, out=grad["embed.W"])
    else:
        dp = d_w_lookup * (eff.mask_lookup[:, None] if eff.mask_lookup is not None else 1.0)
        dp = dp + d_w_out * (eff.mask_out[None, :] if eff.mask_out is not None else 1.0)
        dp *= ad_w.scaling
        _factor_grads(grad, values, "embed.W", dp)

    ad_u = model.adapters.get("rnn.U")
    if ad_u is not None:
        dp = d_u * (eff.mask_u[None, :] if eff.mask_u is not None else 1.0)
        dp = dp * ad_u.scaling
        _factor_grads(grad, values, "rnn.U", dp)


def _factor_grads(grad, values, target: str, dp: np.ndarray) -> None:
    """The factors' gradients from dp, the scaled gradient of their product."""
    a, b = f"{target}.lora.A", f"{target}.lora.B"
    if a in grad:
        np.matmul(dp, values[b].T, out=grad[a])
    if b in grad:
        np.matmul(values[a].T, dp, out=grad[b])


def perplexity_of(model: LmModel, ids: Sequence[int]) -> float:
    """exp of the mean NLL over every predicted position, in windows.

    The id stream is cut into windows of the model's context + 1 tokens
    overlapping by one, so each token after the first is predicted exactly
    once. Full windows are scored EVAL_BLOCK at a time, as strided views of
    the stream, so the memory an evaluation takes does not grow with it.
    """
    arr = np.asarray(ids, dtype=np.int64)
    if arr.ndim != 1 or arr.size < 2:
        raise ArgumentError("perplexity needs at least 2 tokens")
    ctx = model.cfg.context
    _check_ids(model.cfg, arr)

    eff = _effective(model, model.params.arrays())
    total_nll = 0.0
    total_positions = 0

    def accumulate(x: np.ndarray):
        nonlocal total_nll, total_positions
        total_nll += _nll(eff, x)[0]
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
    ids = np.asarray(prefix, dtype=np.int64)
    rows = ids[None, :] if ids.ndim == 1 else ids
    if rows.ndim != 2 or rows.size == 0:
        raise ArgumentError("prefix must be non-empty")
    _check_ids(model.cfg, rows)
    ctx = model.cfg.context
    b, cut = rows.shape
    seq = np.empty((b, cut + n_tokens), dtype=np.int64)
    seq[:, :cut] = rows
    eff = _effective(model, model.params.arrays())
    h, done = None, 0  # h: the states after seq[:, :done]
    for end in range(cut, cut + n_tokens):
        if end > ctx:  # the window slides: run its ids from a zero state
            h, done = None, end - ctx
        h = _recur(eff, seq[:, done:end].T, h)[-1]
        done = end
        probs = np.exp(_log_softmax(h @ eff.w_out.T + eff.c))
        seq[:, end] = np.argmax(probs, axis=1)
    picks = seq[:, cut:]
    return picks[0] if ids.ndim == 1 else picks
