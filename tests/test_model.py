import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from deltafed.errors import ArgumentError
from deltafed.lora import attach
from deltafed.model import (
    LmConfig,
    LmModel,
    Vocab,
    EVAL_BLOCK,
    Workspace,
    _effective,
    _recur,
    as_windows,
    greedy_decode,
    init_model,
    perplexity_of,
    trainable_loss_and_grad,
)

from oracles import (
    forward,
    loss_and_grad,
    reference_dropout_mask,
    reference_loss_and_grad,
    reference_recur,
    replace_values,
    snapshot_loss_and_grad,
)


def finite_difference_grads(model, batch, eps=1e-5):
    """Central differences on every trainable entry, one element at a time."""
    out = {}
    for name, t, flag in model.params.items():
        if not flag:
            continue
        g = np.zeros(t.size)
        base = t.reshape(-1).copy()
        for j in range(t.size):
            for sign in (+1, -1):
                bumped = base.copy()
                bumped[j] += sign * eps
                m2 = model.with_params(
                    replace_values(model.params, {name: bumped.reshape(t.shape)})
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

    def test_ids_are_bytes(self):
        v = Vocab.from_corpus(bytes(range(256)))
        ids = v.encode(bytes(range(255, -1, -1)))
        assert ids.dtype == np.uint8
        assert ids.tolist() == list(range(255, -1, -1))

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
            replace_values(tiny_model.params,
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
            replace_values(tiny_model.params, {"embed.W": w})
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
            replace_values(tiny_model.params,
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
            assert t.shape == tiny_model.params.array(name).shape
            assert flag == tiny_model.params.trainable(name)


STEP_VOCAB, STEP_CONTEXT = 24, 16  # the fed-lora workload's shape


def step_model(d: int, adapters: str) -> LmModel:
    """A model of width d: "full" trains every entry; otherwise LoRA rank 4
    on the comma-separated targets, dropout 0.1, with both factors random
    so that neither factor's gradient is zero."""
    plain = init_model(LmConfig(STEP_VOCAB, d, STEP_CONTEXT), seed=3)
    if adapters == "full":
        return plain
    adapted = attach(plain, adapters.split(","), rank=4, alpha=8.0, dropout_p=0.1, seed=3)
    rng = np.random.default_rng(7)
    return adapted.with_params(
        replace_values(adapted.params,
            {n: rng.uniform(-0.3, 0.3, t.shape) for n, t, f in adapted.params.items() if f}
        )
    )


def step_groups(shape: str):
    """A batch as Windows.batch gives it: 16 full windows; 15 full windows
    and a 9-token tail row; one full window; or 8 full windows (the
    wide-q4-tcp workload's batch)."""
    rng = np.random.default_rng(11)
    full = rng.integers(0, STEP_VOCAB, (16, STEP_CONTEXT + 1))
    rows = {
        "one width": list(full),
        "two widths": list(full[:15]) + [full[15, :9]],
        "single window": [full[0]],
        "batch 8": list(full[:8]),
    }[shape]
    windows = as_windows(rows)
    return windows.batch(np.arange(len(windows)))


class TestWindowsBatch:
    """A two-width shard's batches: one group when no row is short, else
    one per width, each as the rows grouped by length by hand."""

    rows = [list(range(i, i + STEP_CONTEXT + 1)) for i in range(5)] + [[3, 1, 4, 1]]
    windows = as_windows(rows)

    def by_length(self, idx):
        lengths = sorted({len(self.rows[i]) for i in idx})
        return [np.array([self.rows[i] for i in idx if len(self.rows[i]) == n]) for n in lengths]

    def check(self, idx, n_groups):
        got = self.windows.batch(np.array(idx))
        want = self.by_length(idx)
        assert len(got) == len(want) == n_groups
        for g, w in zip(got, want):
            assert g.dtype == np.int64 and g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    def test_batch_without_the_short_row_is_one_group(self):
        assert len(self.windows.widths) == 2
        self.check([4, 0, 2], 1)

    def test_batch_with_the_short_row_is_one_group_per_width(self):
        self.check([4, 5, 0, 2], 2)  # shortest first, each in idx order
        self.check([5], 1)


class TestStepAgainstReference:
    """The training step's in-place, vocab-major kernels against the
    row-major step they replaced: the same loss and gradient up to the order
    of the softmax, bias and weight-gradient sums, and the same draws."""

    @pytest.mark.parametrize("d", [16, 64])
    @pytest.mark.parametrize("shape", ["one width", "two widths", "single window"])
    @pytest.mark.parametrize(
        "adapters, dropout",
        [
            ("embed.W,rnn.U", True),
            ("embed.W,rnn.U", False),
            ("rnn.U", True),
            ("full", False),
        ],
    )
    def test_loss_and_gradient_match(self, d, shape, adapters, dropout):
        model = step_model(d, adapters)
        groups = step_groups(shape)
        rng_new = np.random.default_rng(5) if dropout else None
        rng_ref = np.random.default_rng(5) if dropout else None
        loss, g = trainable_loss_and_grad(model, groups, rng=rng_new)
        ref_loss, ref_g = reference_loss_and_grad(model, groups, rng=rng_ref)
        assert math.isclose(loss, ref_loss, rel_tol=1e-13, abs_tol=0.0)
        assert np.abs(g - ref_g).max() <= 1e-12 * np.abs(ref_g).max()
        assert np.abs(ref_g).max() > 0
        if dropout:  # the step drew as many numbers as the reference
            assert rng_new.random() == rng_ref.random()

    @pytest.mark.parametrize("d", [16, 64])
    def test_recurrence_is_bitwise_equal(self, d):
        model = step_model(d, "embed.W,rnn.U")
        ws = Workspace(model)
        eff = _effective(model, model.params.arrays(), ws, np.random.default_rng(2))
        xt = step_groups("one width")[0].T
        bsz = xt.shape[1]
        assert np.array_equal(_recur(eff, xt, ws.shape(bsz, 18)), reference_recur(eff, xt))
        h = np.random.default_rng(4).uniform(-1, 1, (bsz, d))
        got = _recur(eff, xt[:5], ws.shape(bsz, 6), h)
        assert np.array_equal(got, reference_recur(eff, xt[:5], h))

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_dropout_mask_is_bitwise_equal(self, p):
        # every mask of a step comes from one draw, in the order of one
        # draw per mask: embed rows, embed columns, U columns; U's p may
        # differ from embed's
        plain = init_model(LmConfig(STEP_VOCAB, 16, STEP_CONTEXT), seed=3)
        model = attach(plain, ["embed.W", "rnn.U"], rank=4, alpha=8.0, dropout_p=p, seed=3)
        for p_u in (p, 0.3):
            adapters = dict(model.adapters, **{"rnn.U": replace(model.adapters["rnn.U"], dropout_p=p_u)})
            adapted = replace(model, adapters=adapters)
            rng_new, rng_ref = np.random.default_rng(9), np.random.default_rng(9)
            eff = _effective(adapted, adapted.params.arrays(), Workspace(adapted), rng_new)
            assert np.array_equal(eff.mask_lookup[:, 0], reference_dropout_mask(rng_ref, STEP_VOCAB, p))
            assert np.array_equal(eff.mask_out, reference_dropout_mask(rng_ref, 16, p))
            assert np.array_equal(eff.mask_u, reference_dropout_mask(rng_ref, 16, p_u))
            assert rng_new.random() == rng_ref.random()


class TestStepAgainstSnapshot:
    """The training step on a workspace against the snapshot step it
    replaced (`tests/oracles.py`), which allocated every product and drew
    one mask at a time: the same loss, gradient and generator stream, bit
    for bit, with or without a workspace and when one is reused."""

    @pytest.mark.parametrize("d", [16, 64, 256])
    @pytest.mark.parametrize("shape", ["one width", "two widths", "single window", "batch 8"])
    @pytest.mark.parametrize(
        "adapters, dropout",
        [
            ("embed.W,rnn.U", True),
            ("embed.W,rnn.U", False),
            ("rnn.U", True),
            ("full", False),
        ],
    )
    def test_step_is_bitwise_equal(self, d, shape, adapters, dropout):
        model = step_model(d, adapters)
        groups = step_groups(shape)
        rng_new = np.random.default_rng(5) if dropout else None
        rng_ref = np.random.default_rng(5) if dropout else None
        ws = Workspace(model)
        for workspace in (None, ws, ws):
            loss, g = trainable_loss_and_grad(model, groups, rng=rng_new, ws=workspace)
            ref_loss, ref_g = snapshot_loss_and_grad(model, groups, rng=rng_ref)
            assert loss == ref_loss
            assert g.tobytes() == ref_g.tobytes()
            assert np.abs(ref_g).max() > 0
            if dropout:  # the step drew the same numbers as the snapshot
                assert rng_new.random() == rng_ref.random()


class TestPerplexity:
    def test_uniform_model_gives_vocab_size(self, tiny_model):
        v = tiny_model.cfg.vocab_size
        uniform = tiny_model.with_params(
            replace_values(tiny_model.params,
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
            replace_values(m.params, {"embed.W": np.zeros((2, 2)), "out.b": np.zeros(2)})
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


class TestByteIds:
    """Ids held as uint8, as a corpus gives them, against int64 copies of
    the same ids: every loss, gradient, perplexity and pick is bitwise the
    same. A target's flat index `id * n + position` passes 255 here while
    n, the group's position count, is at most 255, where a product formed
    in uint8 would wrap; the clipped take would not notice."""

    def check(self, model, rows, stream, prefixes, n_tokens):
        for rng in (None, 5):
            got = [
                trainable_loss_and_grad(
                    model, [x], rng=None if rng is None else np.random.default_rng(rng)
                )
                for x in (rows, rows.astype(np.int64))
            ]
            (loss8, g8), (loss64, g64) = got
            assert loss8 == loss64
            assert g8.tobytes() == g64.tobytes()
        assert perplexity_of(model, stream) == perplexity_of(model, stream.astype(np.int64))
        picks = greedy_decode(model, prefixes, n_tokens)
        assert picks.tobytes() == greedy_decode(model, prefixes.astype(np.int64), n_tokens).tobytes()

    @pytest.mark.parametrize("adapters", ["embed.W,rnn.U", "full"])
    def test_flat_index_past_a_byte(self, adapters):
        model = step_model(16, adapters)
        rng = np.random.default_rng(12)
        rows = rng.integers(0, STEP_VOCAB, (4, STEP_CONTEXT + 1)).astype(np.uint8)
        rows[-1, -1] = STEP_VOCAB - 1  # the last position's target: 23 * 64 + 63
        # five full windows (80 positions) and a 7-token tail block
        stream = rng.integers(0, STEP_VOCAB, 5 * STEP_CONTEXT + 1 + 6).astype(np.uint8)
        prefixes = rows[:, :8]
        self.check(model, rows, stream, prefixes, 12)  # the decode slides past the context

    def test_every_byte_value(self):
        model = init_model(LmConfig(256, 8, STEP_CONTEXT), seed=5)
        model = model.with_params(
            model.params.with_trainable(
                np.random.default_rng(1).standard_normal(model.params.layout.trainable_size)
            )
        )
        values = np.arange(256, dtype=np.uint8)
        rows = np.random.default_rng(2).permutation(values)[: 4 * 17].reshape(4, 17)
        rows[0, 1:3] = [0, 255]
        stream = np.concatenate([values, values[::-1]])
        self.check(model, rows, stream, values.reshape(16, 16)[:, :6], 6)
