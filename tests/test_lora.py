import numpy as np
import pytest

from deltafed.errors import ArgumentError
from deltafed.lora import attach
from deltafed.model import LmConfig, init_model, loss_and_grad
from deltafed.params import subtract_trainable
from deltafed.protocol import dense_delta

from oracles import forward
from test_model import finite_difference_grads, max_rel_error


def naive_matmul(a, b):
    """Triple-loop product; the oracle the fast path must match."""
    m, r = a.shape
    r2, n = b.shape
    assert r == r2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for k in range(r):
                out[i, j] += a[i, k] * b[k, j]
    return out


@pytest.fixture
def plain():
    return init_model(LmConfig(vocab_size=6, embed_dim=4, context=8), seed=11)


@pytest.fixture
def adapted(plain):
    return attach(plain, ["embed.W", "rnn.U"], rank=2, alpha=4.0, seed=11)


class TestAttach:
    def test_entry_names_and_flags(self, adapted):
        assert adapted.params.names() == [
            "embed.W",
            "embed.W.lora.A",
            "embed.W.lora.B",
            "out.b",
            "rnn.U",
            "rnn.U.lora.A",
            "rnn.U.lora.B",
            "rnn.b",
        ]
        for name in ["embed.W", "rnn.U", "rnn.b", "out.b"]:
            assert not adapted.params.trainable(name)
        for t in ["embed.W", "rnn.U"]:
            assert adapted.params.trainable(f"{t}.lora.A")
            assert adapted.params.trainable(f"{t}.lora.B")

    def test_trainable_count_formula(self, adapted):
        # sum of r*(m+n) over targets: embed.W is 6x4, rnn.U is 4x4, r=2
        expected = 2 * (6 + 4) + 2 * (4 + 4)
        assert adapted.params.num_params(trainable_only=True) == expected

    def test_b_zero_init_preserves_forward(self, plain, adapted):
        seq = [0, 1, 2, 3, 4]
        p1, _ = forward(plain, seq)
        p2, _ = forward(adapted, seq)
        assert np.allclose(p1, p2, atol=1e-15)

    def test_a_gaussian_b_zero(self, adapted):
        a = adapted.params.array("embed.W.lora.A")
        b = adapted.params.array("embed.W.lora.B")
        assert np.all(b == 0.0)
        assert a.std() > 0.005  # drawn, not zeros
        assert np.abs(a).max() < 0.2  # std 0.02 gaussian stays small

    def test_seeded_determinism(self, plain):
        a1 = attach(plain, ["embed.W"], 2, 4.0, seed=5)
        a2 = attach(plain, ["embed.W"], 2, 4.0, seed=5)
        a3 = attach(plain, ["embed.W"], 2, 4.0, seed=6)
        assert a1.params == a2.params
        assert a1.params != a3.params

    def test_rejects_bad_targets(self, plain):
        with pytest.raises(ArgumentError):
            attach(plain, ["nope"], 2, 4.0, seed=0)
        with pytest.raises(ArgumentError):
            attach(plain, ["rnn.b"], 1, 4.0, seed=0)  # 1-D entry
        with pytest.raises(ArgumentError):
            attach(plain, ["embed.W"], 5, 4.0, seed=0)  # r > min(6,4)
        with pytest.raises(ArgumentError):
            attach(plain, [], 2, 4.0, seed=0)

    def test_double_attach_rejected(self, adapted):
        with pytest.raises(ArgumentError):
            attach(adapted, ["embed.W"], 2, 4.0, seed=0)


class TestEffectiveWeight:
    def test_matches_naive_matmul_oracle(self, adapted):
        # a dense delta carries each target's change in W + s * A @ B; from
        # B = 0 that change is s * A @ B, here taken by the oracle
        rng = np.random.default_rng(8)
        bumped = adapted.with_params(
            adapted.params.replace_values(
                {
                    "embed.W.lora.B": rng.standard_normal((2, 4)),
                    "rnn.U.lora.B": rng.standard_normal((2, 4)),
                }
            )
        )
        delta = dense_delta(bumped, adapted.params)
        p = bumped.params
        for t, ad in bumped.adapters.items():
            a, b = p.array(f"{t}.lora.A"), p.array(f"{t}.lora.B")
            assert np.allclose(delta.array(t), ad.scaling * naive_matmul(a, b), atol=1e-12)

    def test_default_scaling_alpha_over_r(self, adapted):
        assert adapted.adapters["embed.W"].scaling == 4.0 / 2


class TestGradientFlow:
    def test_base_gradients_exactly_zero(self, adapted):
        _, grads = loss_and_grad(adapted, [[0, 1, 2], [3, 4]])
        for name in ["embed.W", "rnn.U", "rnn.b", "out.b"]:
            assert np.all(grads.array(name) == 0.0)

    def test_factor_gradients_match_finite_differences(self, adapted):
        rng = np.random.default_rng(21)
        # move B off zero so both factors carry signal
        adapted = adapted.with_params(
            adapted.params.replace_values(
                {
                    "embed.W.lora.B": 0.1 * rng.standard_normal((2, 4)),
                    "rnn.U.lora.B": 0.1 * rng.standard_normal((2, 4)),
                }
            )
        )
        batch = [[0, 1, 2, 3], [4, 5, 1]]
        _, grads = loss_and_grad(adapted, batch)
        numeric = finite_difference_grads(adapted, batch)
        assert max_rel_error(grads, numeric) <= 1e-4

    def test_delta_locality(self, adapted):
        # a hand-applied factor update shows up only on .lora.* entries
        rng = np.random.default_rng(2)
        moved = adapted.with_params(
            adapted.params.replace_values(
                {"embed.W.lora.B": rng.standard_normal((2, 4))}
            )
        )
        delta = subtract_trainable(moved.params, adapted.params)
        assert all(".lora." in n for n in delta.names())


class TestMerge:
    def test_forward_unchanged(self, adapted, plain):
        # the plain model with W + s * A @ B in place of each target W,
        # merged here with the oracle product, computes the adapted forward
        rng = np.random.default_rng(31)
        adapted = adapted.with_params(
            adapted.params.replace_values(
                {
                    "embed.W.lora.B": 0.2 * rng.standard_normal((2, 4)),
                    "rnn.U.lora.B": 0.2 * rng.standard_normal((2, 4)),
                }
            )
        )
        p = adapted.params
        merged = {
            t: p.array(t)
            + ad.scaling * naive_matmul(p.array(f"{t}.lora.A"), p.array(f"{t}.lora.B"))
            for t, ad in adapted.adapters.items()
        }
        oracle = plain.with_params(plain.params.replace_values(merged))
        seq = [5, 4, 3, 2, 1, 0]
        before, _ = forward(adapted, seq)
        after, _ = forward(oracle, seq)
        assert np.allclose(before, after, atol=1e-12)
        assert not np.allclose(before, forward(plain, seq)[0], atol=1e-6)


class TestDropout:
    def test_eval_ignores_dropout(self, plain):
        m = attach(plain, ["embed.W"], 2, 4.0, dropout_p=0.5, seed=3)
        p1, _ = forward(m, [0, 1, 2])
        p2, _ = forward(m, [0, 1, 2])
        assert np.array_equal(p1, p2)

    def test_training_dropout_is_seeded(self, plain):
        m = attach(plain, ["embed.W", "rnn.U"], 2, 4.0, dropout_p=0.5, seed=3)
        rng = np.random.default_rng(12)
        m = m.with_params(
            m.params.replace_values(
                {
                    "embed.W.lora.B": rng.standard_normal((2, 4)),
                    "rnn.U.lora.B": rng.standard_normal((2, 4)),
                }
            )
        )
        batch = [[0, 1, 2, 3]]
        l1, g1 = loss_and_grad(m, batch, rng=np.random.default_rng(55))
        l2, g2 = loss_and_grad(m, batch, rng=np.random.default_rng(55))
        l3, _ = loss_and_grad(m, batch, rng=np.random.default_rng(56))
        assert l1 == l2
        assert g1 == g2
        assert l1 != l3  # different mask draw

    def test_no_rng_means_no_dropout(self, plain):
        m = attach(plain, ["embed.W"], 2, 4.0, dropout_p=0.9, seed=3)
        l1, _ = loss_and_grad(m, [[0, 1, 2]])
        l2, _ = loss_and_grad(m, [[0, 1, 2]])
        assert l1 == l2
