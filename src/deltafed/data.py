"""Corpus ingestion and the IID round-robin partition.

Token ids are uint8 arrays from the corpus on, one byte per id, as the
byte-level vocabulary allows: the splits are slices of the encoded stream,
the windows one id matrix (`model.Windows`), shuffled once into a read-only
copy, and each shard a strided row view of that copy. Id lists become int64
arrays; an integer array keeps its dtype.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ArgumentError
from .model import SEED_PARTITION, Vocab, Windows, as_windows, id_array


def split_stream(ids, split: float) -> tuple[np.ndarray, np.ndarray]:
    """Front fraction for training, remainder for evaluation, as arrays of
    `ids`' integer dtype (slices of `ids` when it is an integer array)."""
    if not 0.0 < split < 1.0:
        raise ArgumentError(f"split must be in (0, 1), got {split}")
    arr = id_array(ids)
    cut = int(len(arr) * split)
    train, val = arr[:cut], arr[cut:]
    if len(train) < 2 or len(val) < 2:
        raise ArgumentError(
            f"split {split} leaves too few tokens ({len(train)}/{len(val)})"
        )
    return train, val


def sequences_of(ids, context: int) -> Windows:
    """Non-overlapping windows of context+1 tokens; tails under 2 are dropped.

    The full windows are the stream's front reshaped to (n, context+1); a
    tail of 2 or more tokens becomes one more, shorter row after them.
    """
    if context < 1:
        raise ArgumentError(f"context must be >= 1, got {context}")
    arr = id_array(ids)
    width = context + 1
    n_full, rest = divmod(arr.size, width)
    full = arr[: n_full * width].reshape(n_full, width)
    if rest < 2:
        return Windows(full, np.full(n_full, width))
    rows = np.zeros((n_full + 1, width), dtype=arr.dtype)
    rows[:n_full] = full
    rows[n_full, :rest] = arr[n_full * width :]
    return Windows(rows, np.append(np.full(n_full, width), rest))


def round_robin(windows: Windows, k: int) -> list[Windows]:
    """Shard i is rows i, i+k, ... of `windows`, as views."""
    if k < 1:
        raise ArgumentError(f"k must be >= 1, got {k}")
    if len(windows) < k:
        raise ArgumentError(
            f"cannot split {len(windows)} sequences across {k} clients"
        )
    return [Windows(windows.ids[i::k], windows.lengths[i::k]) for i in range(k)]


def partition_iid(sequences, k: int, seed: int) -> list[Windows]:
    """Seeded shuffle into one read-only copy, then round-robin: shard i is
    rows i, i+k, ... of it. With k = 1 the one shard is all of that copy.

    `sequences` is Windows or id sequences; each shard is Windows."""
    windows = as_windows(sequences)
    shuffled = windows.rows(np.random.default_rng([seed, SEED_PARTITION]).permutation(len(windows)))
    for a in (shuffled.ids, shuffled.lengths):
        a.setflags(write=False)
    return round_robin(shuffled, k)


def corpus_tokens(path: str | Path) -> tuple[Vocab, np.ndarray]:
    data = Path(path).read_bytes()
    if len(data) < 4:
        raise ArgumentError(f"corpus {path} is too small ({len(data)} bytes)")
    vocab = Vocab.from_corpus(data)
    return vocab, vocab.encode(data)
