"""Byte-level recurrent language model with hand-written gradients.

One tanh recurrence layer over byte embeddings, with the output projection
tied to the embedding matrix:

    h_i = tanh(U h_{i-1} + W[x_i] + b),   h_0 = 0
    P(x_{i+1} | x_1..x_i) = softmax(W h_i + out.b)

Entries: "embed.W" (V x d, tied embedding/output), "rnn.U" (d x d),
"rnn.b" (d), "out.b" (V). Internals are float64 throughout; gradients are
analytic and verified against central finite differences in the tests.

Adapters (see lora.py) ride along as extra entries named
"<target>.lora.A"/"<target>.lora.B"; when present, forward uses the adapted
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
        return Vocab(bytes(sorted(set(data))))

    @property
    def size(self) -> int:
        return len(self.symbols)

    def encode(self, data: bytes) -> np.ndarray:
        table = np.full(256, -1, dtype=np.int64)
        table[np.frombuffer(self.symbols, dtype=np.uint8)] = np.arange(self.size)
        ids = table[np.frombuffer(data, dtype=np.uint8)]
        if ids.size and ids.min() < 0:
            bad = int(np.frombuffer(data, dtype=np.uint8)[ids < 0][0])
            raise ArgumentError(f"byte 0x{bad:02x} not in vocabulary")
        return ids

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


def _length_groups(cfg: LmConfig, batch: Sequence[Sequence[int]]) -> list[np.ndarray]:
    """The batch as one (count, length) id matrix per distinct length, shortest
    first, each sequence kept in batch order within its matrix."""
    if not len(batch):
        raise ArgumentError("batch must be non-empty")
    by_len: dict[int, list] = {}
    for s in batch:
        by_len.setdefault(len(s), []).append(s)
    groups = []
    for length in sorted(by_len):
        if length < 2:
            raise ArgumentError("every sequence must be 1-D with length >= 2")
        if length > cfg.context + 1:
            raise ArgumentError(
                f"sequence length {length} exceeds context+1 = {cfg.context + 1}"
            )
        try:
            x = np.asarray(by_len[length], dtype=np.int64)
        except (TypeError, ValueError):
            x = None
        if x is None or x.ndim != 2:
            raise ArgumentError("every sequence must be 1-D with length >= 2")
        _check_ids(cfg, x)
        groups.append(x)
    return groups


def _adapter_product(values: Mapping[str, np.ndarray], target: str, scaling: float) -> np.ndarray:
    return scaling * (values[f"{target}.lora.A"] @ values[f"{target}.lora.B"])


def _dropout_mask(rng, size: int, p: float) -> np.ndarray:
    # inverted dropout: zero with probability p, else 1/(1-p)
    keep = rng.random(size) >= p
    return keep.astype(np.float64) / (1.0 - p)


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


def _recur(eff: _Effective, xt: np.ndarray) -> np.ndarray:
    """Hidden states for a time-major (steps, batch) id matrix; returns
    (steps, batch, d)."""
    steps, bsz = xt.shape
    hs = np.empty((steps, bsz, eff.u.shape[0]))
    pre = eff.w_lookup[xt]  # input term of every step at once
    pre += eff.b
    u_t = eff.u.T
    np.tanh(pre[0], out=hs[0])
    for i in range(1, steps):
        np.tanh(hs[i - 1] @ u_t + pre[i], out=hs[i])
    return hs


def _log_softmax(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=-1, keepdims=True)
    return z - m - np.log(np.exp(z - m).sum(axis=-1, keepdims=True))


def _nll(eff: _Effective, x: np.ndarray):
    """Summed next-token NLL of a (batch, length) id matrix.

    -> (nll, hidden states (length-1, batch, d) that emit the predictions,
    exp of the max-shifted logits (n, V) with n = (length-1) * batch, their
    row sums (n, 1), target ids (n,)), all rows in time-major order.
    """
    xt = x.T
    hs = _recur(eff, xt[:-1])
    n = hs.shape[0] * hs.shape[1]
    targets = xt[1:].reshape(n)
    z = hs.reshape(n, -1) @ eff.w_out.T
    z += eff.c
    z -= z.max(axis=1, keepdims=True)
    target_logits = z[np.arange(n), targets].sum()
    e = np.exp(z, out=z)
    s = e.sum(axis=1, keepdims=True)
    nll = float(np.log(s).sum() - target_logits)
    return nll, hs, e, s, targets


def forward(model: LmModel, tokens: Sequence[int]) -> tuple[np.ndarray, dict]:
    """Next-token distributions for one sequence, evaluation mode.

    Row i is P(. | tokens[0..i]), so row i scores the token at position i+1.
    Returns (probs of shape (len, V), cache with hidden states).
    """
    ids = np.asarray(tokens, dtype=np.int64)
    if ids.ndim != 1 or ids.size < 1:
        raise ArgumentError("forward wants a non-empty 1-D token sequence")
    if ids.size > model.cfg.context:
        raise ArgumentError(
            f"sequence length {ids.size} exceeds context {model.cfg.context}"
        )
    _check_ids(model.cfg, ids)
    eff = _effective(model, model.params.arrays())
    hs = _recur(eff, ids[:, None])[:, 0]
    logits = hs @ eff.w_out.T + eff.c
    probs = np.exp(_log_softmax(logits))
    return probs, {"hidden": hs, "logits": logits}


def trainable_loss_and_grad(
    model: LmModel,
    batch: Sequence[Sequence[int]],
    rng=None,
    values: Mapping[str, np.ndarray] | None = None,
) -> tuple[float, np.ndarray]:
    """Mean NLL over all predicted positions, plus its analytic gradient as
    one vector laid out as model.params' trainable vector.

    `values` (entry name -> shaped array) stands in for model.params' values,
    so a training loop can pass views of its own buffers; model.params still
    supplies the layout. Pass rng to enable adapter dropout (training);
    without it the pass is deterministic.
    """
    groups = _length_groups(model.cfg, batch)
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
        nll, hs, dz, s, targets = _nll(eff, x)
        total_nll += nll
        steps, bsz = hs.shape[:2]
        n = steps * bsz
        hm = hs.reshape(n, d)
        # softmax minus one-hot, already divided by the position count
        dz *= inv / s
        dz[np.arange(n), targets] -= inv
        d_c += dz.sum(axis=0)
        d_w_out += dz.T @ hm
        dh_out = (dz @ eff.w_out).reshape(steps, bsz, d)
        gate = 1.0 - hs * hs

        # only the carry recursion runs step by step
        da = np.empty_like(gate)
        carry = dh_out[-1]
        for i in range(steps - 1, 0, -1):
            np.multiply(carry, gate[i], out=da[i])
            carry = dh_out[i - 1] + da[i] @ eff.u
        np.multiply(carry, gate[0], out=da[0])

        da2 = da.reshape(n, d)
        d_b += da2.sum(axis=0)
        d_u += da[1:].reshape(-1, d).T @ hs[:-1].reshape(-1, d)
        # scatter-add of every step's da onto its input row, as one matmul
        # with the one-hot input matrix (several times faster than np.add.at)
        onehot = np.zeros((n, v))
        onehot[np.arange(n), x.T[:-1].reshape(n)] = 1.0
        d_w_lookup += onehot.T @ da2

    _assemble_grads(model, eff, values, grad, d_w_lookup, d_w_out, d_u)
    return total_nll * inv, g


def loss_and_grad(model: LmModel, batch: Sequence[Sequence[int]], rng=None):
    """trainable_loss_and_grad with the gradient as a ParameterSet shaped
    like model.params, exactly zero on frozen entries."""
    loss, g = trainable_loss_and_grad(model, batch, rng=rng)
    layout = model.params.layout
    return loss, ParameterSet.from_vectors(layout, g, np.zeros(layout.frozen_size))


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


def greedy_decode(model: LmModel, prefix: Sequence[int], n_tokens: int) -> np.ndarray:
    """Extend prefix by n_tokens argmax picks (ties to the lowest id)."""
    if n_tokens < 0:
        raise ArgumentError("n_tokens must be >= 0")
    ids = list(np.asarray(prefix, dtype=np.int64))
    if not ids:
        raise ArgumentError("prefix must be non-empty")
    out = []
    for _ in range(n_tokens):
        window = ids[-model.cfg.context :]
        probs, _ = forward(model, window)
        nxt = int(np.argmax(probs[-1]))
        ids.append(nxt)
        out.append(nxt)
    return np.asarray(out, dtype=np.int64)
