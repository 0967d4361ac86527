"""Reference implementations the array paths are checked against.

The data functions build Python lists of token ids, one window at a time;
`list_train_round` gathers each batch as a list and groups it by length
anew at every step; `forward` scores one window; `serial_greedy_decode`
decodes one prefix, running `forward` over the whole window for every pick.
They are slow and plain on purpose. `with_flags`, `merged_with` and `drop`
build the odd parameter sets tests feed to the checks, entry by entry.
"""

import math

import numpy as np

from deltafed.errors import ArgumentError
from deltafed.model import (
    SEED_PARTITION,
    _check_ids,
    _effective,
    _log_softmax,
    _recur,
    trainable_loss_and_grad,
)
from deltafed.optim import (
    OptimizerState,
    _adamw_flat,
    _clip_flat,
    _epoch_batches,
    _grad_norm,
)
from deltafed.params import ParameterSet


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
        _adamw_flat(p, g, m, v, step, cfg)
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
    eff = _effective(model, model.params.arrays())
    hs = _recur(eff, ids[:, None])[:, 0]
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
