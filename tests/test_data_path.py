"""The array data path against list oracles: corpus to shards, a training
round, batched greedy decoding, and the benchmark's step count."""

import importlib.util
import pickle
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import deltafed.harness as harness
import oracles
from deltafed.config import ExperimentConfig
from deltafed.errors import ArgumentError
from deltafed.data import corpus_tokens, partition_iid, sequences_of, split_stream
from deltafed.lora import attach
from deltafed.metrics import bleu
from deltafed.model import LmConfig, Vocab, as_windows, greedy_decode, init_model
from deltafed.optim import OptimizerConfig, init_state, local_train_round
from deltafed.protocol import Client

ROOT = Path(__file__).resolve().parent.parent


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


make_corpus = _load("make_corpus", ROOT / "scripts" / "make_corpus.py").make_corpus


@pytest.fixture(scope="module")
def workloads():
    """bench/workloads.py, which imports its sibling modules by bare name."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        return _load("bench_workloads", ROOT / "bench" / "workloads.py")
    finally:
        sys.path.remove(str(ROOT / "bench"))


# -- corpus to shards -----------------------------------------------------------


@st.composite
def corpora(draw):
    """(corpus bytes, split, context, clients, seed) whose training split is
    n full windows plus a drawn tail of 0 .. context tokens."""
    context = draw(st.integers(1, 12))
    tail = draw(st.integers(0, context))
    n_full = draw(st.integers(0 if tail >= 2 else 1, 12))  # split_stream wants >= 2
    n_train = n_full * (context + 1) + tail
    n_val = draw(st.integers(2, 40))
    alphabet = draw(st.lists(st.integers(0, 255), min_size=2, max_size=8, unique=True))
    body = draw(st.lists(st.sampled_from(alphabet), min_size=n_train + n_val, max_size=n_train + n_val))
    data = bytes(body + alphabet[:2])  # two held-out symbols: a vocabulary of >= 2
    split = (n_train + 0.5) / len(data)  # int(len * split) == n_train
    return data, split, context, draw(st.integers(1, 4)), draw(st.integers(0, 2**31))


@settings(max_examples=150, deadline=None)
@given(corpora())
@example((b"ab" * 21, 15.5 / 42, 4, 2, 0))  # 15 training tokens: no tail
@example((b"ab" * 21, 16.5 / 42, 4, 2, 0))  # a lone tail token, dropped
@example((b"ab" * 21, 17.5 / 42, 4, 2, 0))  # a 2-token tail row
def test_data_path_matches_list_oracle(drawn):
    data, split, context, k, seed = drawn
    vocab = Vocab.from_corpus(data)
    assert vocab.symbols == oracles.vocab_symbols(data)
    ids = vocab.encode(data)

    want_train, want_val = oracles.split_stream(ids.tolist(), split)
    train, val = split_stream(ids, split)
    assert train.dtype == val.dtype == np.uint8  # one byte per id, as encoded
    assert (train.tolist(), val.tolist()) == (want_train, want_val)

    want_windows = oracles.sequences_of(want_train, context)
    windows = sequences_of(train, context)
    assert windows.tolist() == want_windows
    assert windows.ids.shape[1] == context + 1
    assert len(set(windows.lengths[:-1])) <= 1  # only the last row is short

    if len(want_windows) >= k:
        want_shards = oracles.partition_iid(want_windows, k, seed)
        assert [s.tolist() for s in partition_iid(windows, k, seed)] == want_shards


def test_setup_shards_are_views_of_one_shuffle(tmp_path):
    """The setup shuffles the training windows once: that read-only copy is
    central's shard, and each client's shard is a row view of it, with the
    rows `partition_iid` deals. Every id array it makes is uint8."""
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(make_corpus(1000, 1), encoding="ascii")
    cfg = ExperimentConfig(corpus_path=str(corpus), split=0.7, clients=3, seed=1, rounds=1)
    setup = harness._setup(cfg)
    _, ids = corpus_tokens(cfg.resolved_corpus_path())
    windows = sequences_of(split_stream(ids, cfg.split)[0], cfg.context)
    assert list(windows.widths) == [12, 17]  # a tail row

    def bits(w):
        return w.ids.dtype, w.ids.shape, w.ids.tobytes(), w.lengths.dtype, w.lengths.tobytes()

    assert bits(setup.sequences) == bits(partition_iid(windows, 1, cfg.seed)[0])
    want = partition_iid(windows, 3, cfg.seed)
    assert [bits(s) for s in setup.shards] == [bits(s) for s in want]
    for shard in setup.shards:
        assert np.shares_memory(shard.ids, setup.sequences.ids)
        assert np.shares_memory(shard.lengths, setup.sequences.lengths)
    with pytest.raises(ValueError, match="read-only"):
        setup.sequences.ids[0, 0] = 0
    with pytest.raises(ValueError, match="read-only"):
        setup.sequences.lengths[0] = 2
    with pytest.raises(ValueError, match="read-only"):
        setup.shards[2].ids[0, 0] = 0

    # one byte per id everywhere, and in a shard's bind job, out of band
    assert setup.val_ids.dtype == np.uint8
    for w in (setup.sequences, setup.bleu_windows, *setup.shards):
        assert w.ids.dtype == np.uint8
        assert all(g.dtype == np.uint8 for g in w.batch(np.arange(len(w))))
    shard = setup.shards[1]
    buffers = []
    pickle.dumps(shard, protocol=5, buffer_callback=buffers.append)
    id_bytes, length_bytes = (b.raw() for b in buffers)
    rows, width = shard.ids.shape
    assert id_bytes.nbytes == rows * width
    assert bytes(id_bytes) == np.ascontiguousarray(shard.ids).tobytes()
    assert length_bytes.nbytes == 8 * rows


# -- one training round -----------------------------------------------------------


def test_round_with_tail_row_matches_list_shard():
    """A batch holding the short tail row: the array shard, its list twin
    and a list batch grouped anew at every step train bitwise alike."""
    model = attach(
        init_model(LmConfig(vocab_size=7, embed_dim=5, context=8), seed=4),
        ["embed.W", "rnn.U"], rank=2, alpha=4.0, dropout_p=0.1, seed=4,
    )
    ids = np.random.default_rng(8).integers(0, 7, size=6 * 9 + 5)
    shard = partition_iid(sequences_of(ids, 8), 1, seed=2)[0]
    assert list(shard.widths) == [5, 9]
    cfg = OptimizerConfig(lr=0.05, total_steps=10, warmup_ratio=0.1)

    def round_of(train, shard):
        return train(
            model, init_state(model.params), shard, cfg, np.random.default_rng(6),
            batch_size=4, steps=5,
        )

    runs = [
        round_of(local_train_round, shard),
        round_of(local_train_round, shard.tolist()),
        round_of(oracles.list_train_round, shard.tolist()),
    ]
    for trained, state, loss in runs:
        first_model, first_state, first_loss = runs[0]
        assert trained.params.trainable_flat.tobytes() == first_model.params.trainable_flat.tobytes()
        assert state.step == first_state.step == 5
        assert state.m_flat.tobytes() == first_state.m_flat.tobytes()
        assert state.v_flat.tobytes() == first_state.v_flat.tobytes()
        assert loss == first_loss


def test_windows_reject_malformed_rows():
    with pytest.raises(ArgumentError, match="1-D with length >= 2"):
        as_windows([[1, 2], [3]])
    with pytest.raises(ArgumentError, match="1-D with length >= 2"):
        as_windows([[[1, 2]], [3, 4]])


# -- batched greedy decoding ------------------------------------------------------


def assert_decodes_like_serial(model, setup):
    """Every BLEU window decoded as one batch per length, as `bleu_of` does,
    against the serial decode; and BLEU from the serial picks."""
    windows = setup.bleu_windows
    assert len(windows)
    scores = []
    for row, length in zip(windows.ids, windows.lengths):
        cut = length // 2
        batched = greedy_decode(model, row[None, :cut], length - cut)[0]
        serial = oracles.serial_greedy_decode(model, row[:cut], length - cut)
        assert batched.tolist() == serial.tolist()
        scores.append(bleu(serial.tolist(), [row[cut:length].tolist()]))
    assert harness.bleu_of(model, setup) == float(np.mean(scores))
    for length in windows.widths:
        x = windows.ids[windows.lengths == length, :length]
        cut = length // 2
        batched = greedy_decode(model, x[:, :cut], length - cut)
        serial = [oracles.serial_greedy_decode(model, r[:cut], length - cut) for r in x]
        assert batched.tolist() == np.array(serial).tolist()


def trained(setup, cfg):
    """The initial model after client 0's first round."""
    client = Client(setup.model, harness._client_task(cfg, 0, setup.shards[0], setup.steps[0]), cfg)
    client.train()
    return client.model


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", ["fed-lora", "wide-q4-tcp", "compare-fedavg"])
def test_batched_decode_matches_serial_on_workloads(workloads, name, seed, tmp_path):
    wl = workloads.WORKLOADS[name]
    cfg = workloads.make_config(wl, seed, wl.quick_rounds, tmp_path, make_corpus)
    setup = harness._setup(cfg)
    for model in (setup.model, trained(setup, cfg)):
        assert_decodes_like_serial(model, setup)


def test_batched_decode_matches_serial_on_two_lengths(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(make_corpus(1000, 1), encoding="ascii")
    cfg = ExperimentConfig(corpus_path=str(corpus), split=0.7, clients=2, seed=1, rounds=1)
    setup = harness._setup(cfg)
    assert list(setup.bleu_windows.widths) == [15, 17]
    assert list(setup.sequences.widths) == [12, 17]  # and a tail row to train on
    for model in (setup.model, trained(setup, cfg), sharp(setup.model)):
        assert_decodes_like_serial(model, setup)


def sharp(model):
    """The model with standard normal weights, so each pick depends on the
    whole window, where a freshly initialised one picks much the same token
    whatever came before."""
    rng = np.random.default_rng(0)
    return model.with_params(model.params.with_trainable(rng.standard_normal(model.params.layout.trainable_size)))


def test_decode_slides_past_the_context():
    model = sharp(init_model(LmConfig(vocab_size=12, embed_dim=8, context=4), seed=7))
    prefixes = np.random.default_rng(1).integers(0, 12, size=(20, 3))
    batched = greedy_decode(model, prefixes, 9)
    assert batched.shape == (20, 9)
    for row, picks in zip(prefixes, batched):
        assert picks.tolist() == oracles.serial_greedy_decode(model, row, 9).tolist()
        assert greedy_decode(model, row, 9).tolist() == picks.tolist()
    long_prefix = np.arange(7)  # longer than the context: its tail is the window
    assert greedy_decode(model, long_prefix, 3).tolist() == (
        oracles.serial_greedy_decode(model, long_prefix, 3).tolist()
    )


# -- the benchmark's data contract ------------------------------------------------

# Steps per round at seed 1, as bench/workloads.py counted them when the ids
# were lists.
BENCH_STEPS_PER_ROUND = {"fed-lora": 464, "wide-q4-tcp": 4, "compare-fedavg": 464}


@pytest.mark.parametrize("name", sorted(BENCH_STEPS_PER_ROUND))
def test_bench_step_count_matches_setup(workloads, name, tmp_path):
    wl = workloads.WORKLOADS[name]
    cfg = workloads.make_config(wl, 1, wl.quick_rounds, tmp_path, make_corpus)
    modes = workloads.modes_of(wl)
    per_round = sum(harness._setup(cfg).steps.values())
    assert per_round == BENCH_STEPS_PER_ROUND[name]
    assert workloads.steps_per_experiment(cfg, modes) == len(modes) * cfg.rounds * per_round
