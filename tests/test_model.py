import math
import tracemalloc

import numpy as np
import pytest

from deltafed.errors import ArgumentError
from deltafed.model import (
    LmConfig,
    LmModel,
    Vocab,
    EVAL_BLOCK,
    greedy_decode,
    init_model,
    loss_and_grad,
    perplexity_of,
)
from deltafed.params import ParameterSet, Tensor

from oracles import forward


def finite_difference_grads(model, batch, eps=1e-5):
    """Central differences on every trainable entry, one element at a time."""
    out = {}
    for name, t, flag in model.params.items():
        if not flag:
            continue
        g = np.zeros(t.size)
        base = t.data.copy()
        for j in range(t.size):
            for sign in (+1, -1):
                bumped = base.copy()
                bumped[j] += sign * eps
                m2 = model.with_params(
                    model.params.replace_values({name: bumped.reshape(t.shape)})
                )
                loss, _ = loss_and_grad(m2, batch)
                g[j] += sign * loss
        out[name] = (g / (2 * eps)).reshape(t.shape)
    return out


def max_rel_error(analytic, numeric):
    worst = 0.0
    for name, g in numeric.items():
        a = analytic.array(name)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(g)), 1e-6)
        worst = max(worst, float((np.abs(a - g) / denom).max()))
    return worst


@pytest.fixture
def tiny_model():
    return init_model(LmConfig(vocab_size=5, embed_dim=3, context=8), seed=42)


class TestVocab:
    def test_round_trip(self):
        v = Vocab.from_corpus(b"hello world")
        ids = v.encode(b"lode")
        assert v.decode(ids) == b"lode"

    def test_symbols_sorted_distinct(self):
        v = Vocab.from_corpus(b"banana")
        assert v.symbols == b"abn"
        assert v.size == 3

    def test_unknown_byte_rejected(self):
        v = Vocab.from_corpus(b"abc")
        with pytest.raises(ArgumentError):
            v.encode(b"abz")

    def test_too_small(self):
        with pytest.raises(ArgumentError):
            Vocab.from_corpus(b"aaaa")


class TestForward:
    def test_rows_are_distributions(self, tiny_model):
        probs, _ = forward(tiny_model, [0, 1, 2, 3])
        assert probs.shape == (4, 5)
        assert np.all(probs > 0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_zero_output_layer_is_uniform(self, tiny_model):
        v = tiny_model.cfg.vocab_size
        zeroed = tiny_model.with_params(
            tiny_model.params.replace_values(
                {"embed.W": np.zeros((v, 3)), "out.b": np.zeros(v)}
            )
        )
        probs, _ = forward(zeroed, [1, 2, 3])
        assert np.allclose(probs, 1.0 / v, atol=1e-15)

    def test_tied_embedding_and_output(self, tiny_model):
        # perturbing embed.W must move both the input path and the logits;
        # sequences that differ only in history then shift their predictions
        probs_before, _ = forward(tiny_model, [0, 1])
        w = tiny_model.params.array("embed.W").copy()
        w[0, :] += 0.5  # row 0: embedding of token 0 AND logit row of token 0
        bumped = tiny_model.with_params(
            tiny_model.params.replace_values({"embed.W": w})
        )
        probs_after, _ = forward(bumped, [0, 1])
        # output side: P(token 0) changes at every position
        assert not np.allclose(probs_before[:, 0], probs_after[:, 0])
        # input side: even the distribution after consuming token 0 moves
        # on components other than 0 (embedding changed the hidden state)
        assert not np.allclose(probs_before[0, 1:], probs_after[0, 1:])

    def test_length_limits(self, tiny_model):
        with pytest.raises(ArgumentError):
            forward(tiny_model, [])
        with pytest.raises(ArgumentError):
            forward(tiny_model, [0] * 9)  # context is 8
        with pytest.raises(ArgumentError):
            forward(tiny_model, [7])  # id out of range


class TestLossAndGrad:
    def test_matches_finite_differences(self, tiny_model):
        batch = [[0, 1, 2, 3], [4, 3, 1], [2, 2]]
        loss, grads = loss_and_grad(tiny_model, batch)
        assert loss > 0
        numeric = finite_difference_grads(tiny_model, batch)
        assert max_rel_error(grads, numeric) <= 1e-4

    def test_loss_invariant_under_duplication(self, tiny_model):
        batch = [[0, 1, 2], [3, 4]]
        loss1, _ = loss_and_grad(tiny_model, batch)
        loss2, _ = loss_and_grad(tiny_model, batch + batch)
        assert math.isclose(loss1, loss2, rel_tol=1e-12)

    def test_uniform_model_loss_is_log_v(self, tiny_model):
        v = tiny_model.cfg.vocab_size
        zeroed = tiny_model.with_params(
            tiny_model.params.replace_values(
                {"embed.W": np.zeros((v, 3)), "out.b": np.zeros(v)}
            )
        )
        loss, _ = loss_and_grad(zeroed, [[0, 1, 2, 3, 4]])
        assert math.isclose(loss, math.log(v), rel_tol=1e-12)

    def test_rejects_bad_batches(self, tiny_model):
        with pytest.raises(ArgumentError):
            loss_and_grad(tiny_model, [])
        with pytest.raises(ArgumentError):
            loss_and_grad(tiny_model, [[1]])

    def test_grads_shape_compatible(self, tiny_model):
        _, grads = loss_and_grad(tiny_model, [[0, 1]])
        assert grads.names() == tiny_model.params.names()
        for name, t, flag in grads.items():
            assert t.shape == tiny_model.params.tensor(name).shape
            assert flag == tiny_model.params.trainable(name)


class TestPerplexity:
    def test_uniform_model_gives_vocab_size(self, tiny_model):
        v = tiny_model.cfg.vocab_size
        uniform = tiny_model.with_params(
            tiny_model.params.replace_values(
                {"embed.W": np.zeros((v, 3)), "out.b": np.zeros(v)}
            )
        )
        ids = np.arange(50) % v
        assert math.isclose(perplexity_of(uniform, ids), float(v), rel_tol=1e-12)

    def test_half_probability_gives_two(self):
        # V=2 uniform model puts exactly 0.5 on the true token everywhere
        cfg = LmConfig(vocab_size=2, embed_dim=2, context=4)
        m = init_model(cfg, seed=0)
        m = m.with_params(
            m.params.replace_values({"embed.W": np.zeros((2, 2)), "out.b": np.zeros(2)})
        )
        assert math.isclose(perplexity_of(m, [0, 1, 1, 0, 1, 0, 0]), 2.0, rel_tol=1e-12)

    def check_windows(self, model, size):
        rng = np.random.default_rng(3)
        ids = rng.integers(0, 5, size=size)
        ctx = model.cfg.context
        windows = [ids[k : k + ctx + 1] for k in range(0, ids.size - 1, ctx)]
        windows = [w for w in windows if w.size >= 2]
        loss, _ = loss_and_grad(model, windows)
        assert math.isclose(perplexity_of(model, ids), math.exp(loss), rel_tol=1e-9)

    def test_matches_exp_of_loss_over_same_windows(self, tiny_model):
        self.check_windows(tiny_model, 57)  # one block

    def test_blocks_match_exp_of_loss_over_same_windows(self, tiny_model):
        # three blocks and a tail
        self.check_windows(tiny_model, 57 + 2 * EVAL_BLOCK * tiny_model.cfg.context)

    def test_peak_memory_does_not_grow_with_the_stream(self):
        model = init_model(LmConfig(vocab_size=24, embed_dim=16, context=16), seed=0)
        rng = np.random.default_rng(0)
        peaks = []
        for n in (20_000, 200_000):
            ids = rng.integers(0, 24, size=n)
            tracemalloc.start()
            try:
                perplexity_of(model, ids)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # one block's temporaries, ~0.4 MB; scoring all 200K ids at once
        # took 112 MB
        assert max(peaks) < 1 << 20, peaks
        assert peaks[1] < 1.05 * peaks[0], peaks

    def test_too_short(self, tiny_model):
        with pytest.raises(ArgumentError):
            perplexity_of(tiny_model, [1])


class TestDeterminism:
    def test_same_seed_same_model(self):
        cfg = LmConfig(vocab_size=7, embed_dim=4, context=6)
        a = init_model(cfg, seed=9)
        b = init_model(cfg, seed=9)
        assert a.params == b.params

    def test_different_seed_different_model(self):
        cfg = LmConfig(vocab_size=7, embed_dim=4, context=6)
        assert init_model(cfg, seed=9).params != init_model(cfg, seed=10).params

    def test_out_bias_starts_zero(self, tiny_model):
        assert np.all(tiny_model.params.array("out.b") == 0.0)

    def test_init_range(self, tiny_model):
        w = tiny_model.params.array("embed.W")
        assert np.all(np.abs(w) <= 0.08)


class TestGreedyDecode:
    def test_deterministic_and_in_range(self, tiny_model):
        out1 = greedy_decode(tiny_model, [0, 1], 10)
        out2 = greedy_decode(tiny_model, [0, 1], 10)
        assert np.array_equal(out1, out2)
        assert out1.size == 10
        assert out1.min() >= 0 and out1.max() < 5

    def test_empty_prefix_rejected(self, tiny_model):
        with pytest.raises(ArgumentError):
            greedy_decode(tiny_model, [], 3)
