"""Reference implementations the array paths are checked against.

The data functions build Python lists of token ids, one window at a time;
`list_train_round` gathers each batch as a list and groups it by length
anew at every step; `forward` scores one window; `serial_greedy_decode`
decodes one prefix, running `forward` over the whole window for every pick.
They are slow and plain on purpose. `reference_loss_and_grad` is the
training step's gradient as it was before its kernels worked in place on
vocab-major logits: row-major (n, V) logits, a separate input-term buffer in
the recurrence and a carry temporary per backward step; it builds the
effective weights with the snapshot's. The `snapshot_` functions are the
step as it was before it ran on a workspace (one draw per dropout mask,
every product allocated, a fresh gradient per call, AdamW with its
temporaries), which the step must match bit for bit; `snapshot_train_round`
drives a round with them. `reference_dropout_mask` is the mask cast from
booleans, for the mask's bitwise test. `loss_and_grad`, `clip_gradients` and `adamw_step` are the
step's gradient, clip and AdamW update as ParameterSet front ends of the
flat kernels, for tests that compare them entry by entry and compose a
round from them. `with_flags`, `merged_with`, `drop` and `replace_values`
build the odd parameter sets tests feed to the checks, entry by entry.
`entry_quantize`, `entry_to_bytes` and `q4_payload` are the 4-bit wire
encode as it was before it took a message's entries in one pass: each
entry quantized and packed on its own, its name and rank checked just
before its values; the one-pass encode must match their bytes and errors.
`entry_to_bytes` packs a record with plain per-block `struct` calls and
`nibble_bytes`, which the per-block oracle in `test_quant.py` shares.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from deltafed.errors import ArgumentError, FormatError, StructureError
from deltafed.model import (
    SEED_PARTITION,
    _check_ids,
    _log_softmax,
    as_windows,
    check_windows,
    trainable_loss_and_grad,
)
from deltafed.optim import (
    BETA1,
    BETA2,
    EPS,
    OptimizerState,
    _adamw_flat,
    _clip_flat,
    _grad_norm,
    _nonfinite,
    lr_at,
)
from deltafed.params import ParameterSet, check_layout
from deltafed.quant import BLOCK, QuantizedTensor
from deltafed.wire import DTYPE_Q4


def vocab_symbols(data: bytes) -> bytes:
    return bytes(sorted(set(data)))


def split_stream(ids, split):
    cut = int(len(ids) * split)
    return [int(x) for x in ids[:cut]], [int(x) for x in ids[cut:]]


def sequences_of(ids, context):
    out = []
    for start in range(0, len(ids), context + 1):
        window = list(ids[start : start + context + 1])
        if len(window) >= 2:
            out.append(window)
    return out


def partition_iid(sequences, k, seed):
    rng = np.random.default_rng([seed, SEED_PARTITION])
    order = rng.permutation(len(sequences))
    return [[sequences[j] for j in order[i::k]] for i in range(k)]


def length_groups(cfg, batch):
    """The batch as one (count, length) id matrix per distinct length,
    shortest first, each sequence kept in batch order within its matrix."""
    by_len = {}
    for s in batch:
        by_len.setdefault(len(s), []).append(s)
    groups = []
    for length in sorted(by_len):
        x = np.asarray(by_len[length], dtype=np.int64)
        assert 2 <= length <= cfg.context + 1 and x.ndim == 2
        _check_ids(cfg, x)
        groups.append(x)
    return groups


def _epoch_batches(n, batch_size, rng):
    """One epoch's batches of row indices, from one permutation."""
    order = rng.permutation(n)
    return [order[i : i + batch_size] for i in range(0, n, batch_size)]


def list_train_round(model, state, shard, cfg, rng, *, batch_size, steps):
    """optim.local_train_round on a list shard, a list batch per step."""
    params = model.params
    p = params.trainable_flat.copy()
    m, v = state.m_flat.copy(), state.v_flat.copy()
    values = params.arrays(trainable=p)
    step, losses, pending = state.step, [], []
    for _ in range(steps):
        if not pending:
            pending = _epoch_batches(len(shard), batch_size, rng)
        batch = [shard[i] for i in pending.pop(0)]
        groups = length_groups(model.cfg, batch)
        loss, g = trainable_loss_and_grad(model, groups, rng=rng, values=values)
        norm = _grad_norm(g)
        assert math.isfinite(loss) and math.isfinite(norm)
        _clip_flat(g, norm, cfg.max_grad_norm)
        _adamw_flat(p, g, m, v, step, cfg, np.empty((2, p.size)))
        step += 1
        losses.append(loss)
    trained = model.with_params(params.with_trainable(p))
    return trained, OptimizerState(step, state.layout, m, v), float(np.mean(losses))


def forward(model, tokens):
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
    eff = snapshot_effective(model, model.params.arrays())
    hs = reference_recur(eff, ids[:, None])[:, 0]
    logits = hs @ eff.w_out.T + eff.c
    probs = np.exp(_log_softmax(logits))
    return probs, {"hidden": hs, "logits": logits}


def serial_greedy_decode(model, prefix, n_tokens):
    """Extend one 1-D prefix by n_tokens argmax picks, each from a forward
    pass over the last `context` ids."""
    ids = [int(x) for x in prefix]
    out = []
    for _ in range(n_tokens):
        probs, _ = forward(model, ids[-model.cfg.context :])
        nxt = int(np.argmax(probs[-1]))
        ids.append(nxt)
        out.append(nxt)
    return np.asarray(out, dtype=np.int64)


def with_flags(params, flags):
    """`params` with the named entries' trainable flags replaced."""
    return ParameterSet([(n, t, flags.get(n, f)) for n, t, f in params.items()])


def merged_with(params, other):
    """The union of two sets with disjoint names."""
    return ParameterSet(list(params.items()) + list(other.items()))


def drop(params, names):
    """`params` without the named entries."""
    gone = set(names)
    return ParameterSet([(n, t, f) for n, t, f in params.items() if n not in gone])


def replace_values(params, values):
    """`params` with the named entries' values swapped, flags kept; a
    vector none of them lives in is shared."""
    vectors = [params.frozen_flat, params.trainable_flat]  # copied on first write
    for name, (flag, lo, hi, shape) in params.layout.slots.items():
        if name in values:
            a = np.asarray(values[name], dtype=np.float64)
            if (a.shape or (1,)) != shape:  # a scalar is one value
                raise StructureError(
                    f"entry {name!r}: replacement shape {a.shape or (1,)} != {shape}"
                )
            if not vectors[flag].flags.writeable:
                vectors[flag] = vectors[flag].copy()
            vectors[flag][lo:hi] = a.reshape(-1)
    unknown = set(values) - set(params.layout.slots)
    if unknown:
        raise ArgumentError(f"no entry named {sorted(unknown)[0]!r}")
    return ParameterSet.from_vectors(params.layout, vectors[True], vectors[False])


def clip_gradients(grads, max_norm):
    """_clip_flat on a gradient set: the same set when its norm is within
    max_norm, else a scaled copy."""
    if max_norm <= 0:
        raise ArgumentError(f"max_norm must be positive, got {max_norm}")
    norm = _grad_norm(grads.trainable_flat)
    if not math.isfinite(norm):
        raise _nonfinite(grads.layout, grads.trainable_flat, norm)
    if norm <= max_norm:
        return grads
    return grads.with_trainable(grads.trainable_flat * (max_norm / norm))


def adamw_step(params, grads, state, cfg):
    """One _adamw_flat update on sets; the state passed in is left as it
    was. The gradients' trainable entries must be the parameters'."""
    check_layout(params.layout.trainable_only, grads.layout.trainable_only)
    check_layout(params.layout.trainable_only, state.layout)
    p = params.trainable_flat.copy()
    m, v = state.m_flat.copy(), state.v_flat.copy()
    _adamw_flat(p, grads.trainable_flat, m, v, state.step, cfg, np.empty((2, p.size)))
    return params.with_trainable(p), OptimizerState(state.step + 1, state.layout, m, v)


def loss_and_grad(model, batch, rng=None):
    """trainable_loss_and_grad of every window in `batch` (Windows, or id
    sequences), with the gradient as a ParameterSet shaped like
    model.params, exactly zero on frozen entries."""
    windows = as_windows(batch)
    if not len(windows):
        raise ArgumentError("batch must be non-empty")
    check_windows(model.cfg, windows)
    groups = windows.batch(np.arange(len(windows)))
    loss, g = trainable_loss_and_grad(model, groups, rng=rng)
    layout = model.params.layout
    return loss, ParameterSet.from_vectors(layout, g, np.zeros(layout.frozen_size))


def reference_dropout_mask(rng, size, p):
    keep = rng.random(size) >= p
    return keep.astype(np.float64) / (1.0 - p)


def reference_recur(eff, xt, h=None):
    steps, bsz = xt.shape
    hs = np.empty((steps, bsz, eff.u.shape[0]))
    pre = eff.w_lookup[xt]  # input term of every step at once
    pre += eff.b
    u_t = eff.u.T
    if h is None:
        np.tanh(pre[0], out=hs[0])
    else:
        np.tanh(h @ u_t + pre[0], out=hs[0])
    for i in range(1, steps):
        np.tanh(hs[i - 1] @ u_t + pre[i], out=hs[i])
    return hs


def reference_nll(eff, x):
    xt = x.T
    hs = reference_recur(eff, xt[:-1])
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


def reference_loss_and_grad(model, groups, rng=None, values=None):
    if values is None:
        values = model.params.arrays()
    eff = snapshot_effective(model, values, rng)
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
        nll, hs, dz, s, targets = reference_nll(eff, x)
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

    snapshot_assemble_grads(model, eff, values, grad, d_w_lookup, d_w_out, d_u)
    return total_nll * inv, g


# -- the snapshot step ---------------------------------------------------------
# The training step as it was before it ran on a per-round workspace: one
# `rng.random` call per dropout mask, every product allocated by `@`, fresh
# gradient and accumulator arrays per call, and an AdamW update that builds
# its temporaries. The step that replaced it must match it bitwise.


def snapshot_dropout_mask(rng, size, p):
    # inverted dropout: zero with probability p, else 1/(1-p)
    return (rng.random(size) >= p) * (1.0 / (1.0 - p))


@dataclass
class SnapshotEffective:
    """Per-call effective weights plus the dropout masks that shaped them."""

    w_lookup: np.ndarray
    w_out: np.ndarray
    u: np.ndarray
    b: np.ndarray
    c: np.ndarray
    mask_lookup: np.ndarray = None  # over vocab rows
    mask_out: np.ndarray = None  # over embed columns
    mask_u: np.ndarray = None  # over embed columns


def snapshot_adapter_product(values, target, scaling):
    return scaling * (values[f"{target}.lora.A"] @ values[f"{target}.lora.B"])


def snapshot_effective(model, values, rng=None):
    w = values["embed.W"]
    u = values["rnn.U"]
    eff = SnapshotEffective(w, w, u, values["rnn.b"], values["out.b"])

    ad_w = model.adapters.get("embed.W")
    if ad_w is not None:
        prod = snapshot_adapter_product(values, "embed.W", ad_w.scaling)
        if rng is not None and ad_w.dropout_p > 0:
            eff.mask_lookup = snapshot_dropout_mask(rng, w.shape[0], ad_w.dropout_p)
            eff.mask_out = snapshot_dropout_mask(rng, w.shape[1], ad_w.dropout_p)
            eff.w_lookup = w + prod * eff.mask_lookup[:, None]
            eff.w_out = w + prod * eff.mask_out[None, :]
        else:
            eff.w_lookup = eff.w_out = w + prod

    ad_u = model.adapters.get("rnn.U")
    if ad_u is not None:
        prod = snapshot_adapter_product(values, "rnn.U", ad_u.scaling)
        if rng is not None and ad_u.dropout_p > 0:
            eff.mask_u = snapshot_dropout_mask(rng, u.shape[1], ad_u.dropout_p)
            eff.u = u + prod * eff.mask_u[None, :]
        else:
            eff.u = u + prod

    return eff


def snapshot_recur(eff, xt, h=None):
    hs = eff.w_lookup[xt]  # input term of every step at once
    hs += eff.b
    u_t = eff.u.T
    prev = h
    for cur in hs:
        if prev is not None:
            cur += prev @ u_t
        np.tanh(cur, out=cur)
        prev = cur
    return hs


def snapshot_flat_index(ids, n):
    at = ids * n
    at += np.arange(n)
    return at


def snapshot_nll(eff, x):
    xt = x.T
    hs = snapshot_recur(eff, xt[:-1])
    n = hs.shape[0] * hs.shape[1]
    z = eff.w_out @ hs.reshape(n, -1).T  # vocab-major: reductions run down columns
    z += eff.c[:, None]
    z -= z.max(axis=0)
    at_target = snapshot_flat_index(xt[1:].reshape(n), n)
    target_logits = z.take(at_target).sum()
    e = np.exp(z, out=z)
    s = e.sum(axis=0)
    nll = float(np.log(s).sum() - target_logits)
    return nll, hs, e, s, at_target


def snapshot_loss_and_grad(model, groups, rng=None, values=None):
    if values is None:
        values = model.params.arrays()
    eff = snapshot_effective(model, values, rng)
    v, d = eff.w_lookup.shape
    layout = model.params.layout
    g = np.zeros(layout.trainable_size)
    grad = layout.views(g)

    total_nll = 0.0
    inv = 1.0 / sum(x.size - x.shape[0] for x in groups)
    d_w_lookup = np.zeros((v, d))
    d_w_out = np.zeros((v, d))
    trained_u = "rnn.U" in grad and "rnn.U" not in model.adapters
    d_u = grad["rnn.U"] if trained_u else np.zeros((d, d))
    d_b = grad["rnn.b"] if "rnn.b" in grad else np.zeros(d)
    d_c = grad["out.b"] if "out.b" in grad else np.zeros(v)

    for x in groups:
        nll, hs, dz, s, at_target = snapshot_nll(eff, x)
        total_nll += nll
        steps, bsz = hs.shape[:2]
        n = steps * bsz
        hm = hs.reshape(n, d)
        dz *= inv / s
        dz.reshape(-1)[at_target] -= inv
        d_c += dz.sum(axis=1)
        d_w_out += dz @ hm
        da = (dz.T @ eff.w_out).reshape(steps, bsz, d)
        gate = np.multiply(hs, hs)
        np.subtract(1.0, gate, out=gate)

        da[-1] *= gate[-1]
        for i in range(steps - 1, 0, -1):
            prev = da[i - 1]
            prev += da[i] @ eff.u
            prev *= gate[i - 1]

        da2 = da.reshape(n, d)
        d_b += da2.sum(axis=0)
        d_u += da[1:].reshape(-1, d).T @ hs[:-1].reshape(-1, d)
        onehot = dz
        onehot.fill(0.0)
        onehot.reshape(-1)[snapshot_flat_index(x.T[:-1].reshape(n), n)] = 1.0
        d_w_lookup += onehot @ da2

    snapshot_assemble_grads(model, eff, values, grad, d_w_lookup, d_w_out, d_u)
    return total_nll * inv, g


def snapshot_assemble_grads(model, eff, values, grad, d_w_lookup, d_w_out, d_u):
    ad_w = model.adapters.get("embed.W")
    if ad_w is None:
        if "embed.W" in grad:
            np.add(d_w_lookup, d_w_out, out=grad["embed.W"])
    else:
        dp = d_w_lookup * (eff.mask_lookup[:, None] if eff.mask_lookup is not None else 1.0)
        dp = dp + d_w_out * (eff.mask_out[None, :] if eff.mask_out is not None else 1.0)
        dp *= ad_w.scaling
        snapshot_factor_grads(grad, values, "embed.W", dp)

    ad_u = model.adapters.get("rnn.U")
    if ad_u is not None:
        dp = d_u * (eff.mask_u[None, :] if eff.mask_u is not None else 1.0)
        dp = dp * ad_u.scaling
        snapshot_factor_grads(grad, values, "rnn.U", dp)


def snapshot_factor_grads(grad, values, target, dp):
    a, b = f"{target}.lora.A", f"{target}.lora.B"
    if a in grad:
        np.matmul(dp, values[b].T, out=grad[a])
    if b in grad:
        np.matmul(values[a].T, dp, out=grad[b])


def snapshot_adamw_flat(p, g, m, v, step, cfg):
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


def snapshot_train_round(model, state, windows, cfg, rng, *, batch_size, steps):
    """optim.local_train_round driven by the snapshot step and AdamW: a
    fresh gradient per step, on Windows batches. Returns the trained
    vector, the state and the mean loss; a non-finite step raises as the
    round does."""
    params = model.params
    p = params.trainable_flat.copy()
    m, v = state.m_flat.copy(), state.v_flat.copy()
    values = params.arrays(trainable=p)
    step, losses, pending = state.step, [], []
    for _ in range(steps):
        if not pending:
            pending = _epoch_batches(len(windows), batch_size, rng)
        batch = windows.batch(pending.pop(0))
        loss, g = snapshot_loss_and_grad(model, batch, rng=rng, values=values)
        norm = _grad_norm(g)
        if not (math.isfinite(loss) and math.isfinite(norm)):
            raise _nonfinite(state.layout, g, norm, f"optimizer step {step + 1}: loss {loss:g}, ")
        _clip_flat(g, norm, cfg.max_grad_norm)
        snapshot_adamw_flat(p, g, m, v, step, cfg)
        step += 1
        losses.append(loss)
    return p, OptimizerState(step, state.layout, m, v), float(np.mean(losses))


def entry_quantize(values):
    """One entry's values as 4-bit blocks, blocks from its first value."""
    flat = np.asarray(values, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(flat)):
        raise ArgumentError("cannot quantize non-finite values")
    n = flat.size
    starts = np.arange(0, n, BLOCK)
    mn = np.minimum.reduceat(flat, starts)
    mx = np.maximum.reduceat(flat, starts)
    rmin = np.minimum(mn, 0.0)
    with np.errstate(over="ignore"):
        rng = np.maximum(mx, 0.0) - rmin
        scale = (rng / 15).astype(np.float32)
        const_scale = np.abs(mn).astype(np.float32)
    short = scale.astype(np.float64) * 15 < rng
    scale[short] = np.nextafter(scale[short], np.float32(np.inf))
    const = (mn == mx) & np.isfinite(const_scale)
    if not np.all(np.isfinite(scale[~const])):
        raise ArgumentError("block range exceeds the 4-bit codec's f32 scale")
    scale = np.where(const, const_scale, scale)
    dust = scale == 0.0
    scale[dust] = 1.0
    step = np.where(const & ~dust, np.abs(mn), scale)
    zps = np.clip(np.ceil(-rmin / step - 0.5), 0, 15).astype(np.uint8)
    sizes = np.diff(np.append(starts, n))
    q = np.floor(flat / np.repeat(step, sizes) + np.repeat(zps, sizes) + 0.5)
    return QuantizedTensor((n,), scale, zps, np.clip(q, 0, 15).astype(np.uint8))


def entry_to_bytes(q):
    """One entry's record: its block scales, then its zero points and its
    codes, each packed two per byte, low nibble first, a run of odd count
    ending in a zero nibble."""
    scales = b"".join(struct.pack("<f", s) for s in q.scales.tolist())
    return scales + nibble_bytes(q.zero_points.tolist()) + nibble_bytes(q.codes.tolist())


def nibble_bytes(values):
    """4-bit values two per byte, low nibble first, an odd count padded
    with a zero nibble."""
    values = list(values) + [0] * (len(values) % 2)
    return bytes(values[i] | values[i + 1] << 4 for i in range(0, len(values), 2))


def q4_payload(params):
    """serialize_params(params, "all", quantize_payload=True), entry by
    entry."""
    chunks = [struct.pack("<I", len(params.names()))]
    for name in params.names():
        encoded, shape = name.encode("utf-8"), params.layout.slots[name][3]
        if len(encoded) > 0xFFFF:
            raise FormatError(f"entry name {name[:32]!r}... exceeds 65535 bytes")
        if len(shape) > 0xFF:
            raise FormatError(f"entry {name!r} rank {len(shape)} exceeds 255")
        chunks.append(struct.pack(f"<H{len(encoded)}sBB{len(shape)}I", len(encoded), encoded, DTYPE_Q4, len(shape), *shape))
        chunks.append(entry_to_bytes(entry_quantize(params.array(name))))
    return b"".join(chunks)
