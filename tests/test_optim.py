import math
import os
import sys

import numpy as np
import pytest

from deltafed import optim
from deltafed.errors import ArgumentError, NumericalError, StructureError
from deltafed.lora import attach
from deltafed.model import EVAL_BLOCK, LmConfig, as_windows, init_model, perplexity_of
from deltafed.optim import (
    OptimizerConfig,
    _adamw_flat,
    init_state,
    local_train_round,
    lr_at,
)
from deltafed.params import ParameterSet, l2_norm
from oracles import (
    adamw_step,
    clip_gradients,
    loss_and_grad,
    replace_values,
    snapshot_adamw_flat,
    snapshot_train_round,
    with_flags,
)


def scalar_set(value, trainable=True):
    return ParameterSet({"w": (np.array([value]), trainable)})


def scalar_adamw_oracle(p, g, lr, steps, b1=0.9, b2=0.999, eps=1e-8, wd=0.0):
    """Hand transcription of decoupled AdamW for a single weight."""
    m = v = 0.0
    for t in range(1, steps + 1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        p = p - lr * wd * p - lr * m_hat / (math.sqrt(v_hat) + eps)
    return p


class TestConfig:
    def test_defaults(self):
        cfg = OptimizerConfig(lr=5e-5, total_steps=100)
        assert (optim.BETA1, optim.BETA2, optim.EPS) == (0.9, 0.999, 1e-8)
        assert cfg.weight_decay == 0.001
        assert cfg.max_grad_norm == 0.3
        assert cfg.warmup_ratio == 0.03
        assert cfg.warmup_steps == 3

    def test_validation(self):
        with pytest.raises(ArgumentError):
            OptimizerConfig(lr=0.0, total_steps=10)
        with pytest.raises(ArgumentError):
            OptimizerConfig(lr=0.1, total_steps=0)
        with pytest.raises(ArgumentError):
            OptimizerConfig(lr=0.1, total_steps=10, warmup_ratio=1.0)
        with pytest.raises(ArgumentError):
            OptimizerConfig(lr=0.1, total_steps=10, max_grad_norm=0.0)


class TestLrSchedule:
    def test_ramp_values(self):
        cfg = OptimizerConfig(lr=0.1, total_steps=100, warmup_ratio=0.1)
        assert cfg.warmup_steps == 10
        assert lr_at(0, cfg) == 0.0
        assert lr_at(5, cfg) == pytest.approx(0.05, abs=1e-12)
        assert lr_at(10, cfg) == 0.1
        assert lr_at(99, cfg) == 0.1

    def test_no_warmup(self):
        cfg = OptimizerConfig(lr=0.2, total_steps=50, warmup_ratio=0.0)
        assert lr_at(0, cfg) == 0.2

    def test_fractional_window_rounds_up(self):
        cfg = OptimizerConfig(lr=1.0, total_steps=100, warmup_ratio=0.025)
        assert cfg.warmup_steps == 3  # ceil(2.5)

    def test_negative_step_rejected(self):
        cfg = OptimizerConfig(lr=0.1, total_steps=10)
        with pytest.raises(ArgumentError):
            lr_at(-1, cfg)


class TestClip:
    def test_below_threshold_unchanged(self):
        g = scalar_set(0.1)
        assert clip_gradients(g, 0.3) is g

    def test_frozen_34_example(self):
        g = ParameterSet(
            {"w": (np.array([3.0, 4.0]), True)}
        )
        clipped = clip_gradients(g, 0.5)
        assert np.allclose(clipped.array("w"), [0.3, 0.4], atol=1e-12)

    def test_post_norm_is_min_of_pre_and_max(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = ParameterSet(
                {
                    "a": (rng.standard_normal((3, 2)), True),
                    "b": (rng.standard_normal(4), True),
                }
            )
            pre = l2_norm(g)
            post = l2_norm(clip_gradients(g, 0.3))
            assert abs(post - min(pre, 0.3)) <= 1e-10

    def test_zero_gradients_pass_through(self):
        g = scalar_set(0.0)
        assert clip_gradients(g, 0.3) is g

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_norm_raises_named_numerical_error(self):
        # the squared norm overflows; scaling by max_norm / inf would zero g
        g = ParameterSet(
            [
                ("a", np.array([1.0]), True),
                ("b", np.array([1e300, 1.0]), True),
            ]
        )
        with pytest.raises(NumericalError, match=r"norm inf; .*entry 'b'"):
            clip_gradients(g, 0.3)


class TestAdamwStep:
    def test_scalar_oracle_one_step(self):
        cfg = OptimizerConfig(
            lr=0.1, total_steps=1, weight_decay=0.0, warmup_ratio=0.0
        )
        params = scalar_set(1.0)
        grads = scalar_set(1.0)
        out, state = adamw_step(params, grads, init_state(params), cfg)
        assert out.array("w")[0] == pytest.approx(
            scalar_adamw_oracle(1.0, 1.0, 0.1, 1), abs=1e-10
        )
        assert state.step == 1

    def test_scalar_oracle_ten_steps(self):
        cfg = OptimizerConfig(
            lr=0.05, total_steps=10, weight_decay=0.0, warmup_ratio=0.0
        )
        params = scalar_set(1.0)
        grads = scalar_set(0.7)
        state = init_state(params)
        for _ in range(10):
            params, state = adamw_step(params, grads, state, cfg)
            grads = scalar_set(0.7)
        assert params.array("w")[0] == pytest.approx(
            scalar_adamw_oracle(1.0, 0.7, 0.05, 10), abs=1e-10
        )

    def test_zero_grads_zero_decay_is_identity(self):
        cfg = OptimizerConfig(
            lr=0.1, total_steps=5, weight_decay=0.0, warmup_ratio=0.0
        )
        params = scalar_set(2.5)
        out, _ = adamw_step(params, scalar_set(0.0), init_state(params), cfg)
        assert out.array("w")[0] == 2.5

    def test_decay_only_shrink_factor(self):
        cfg = OptimizerConfig(
            lr=0.1, total_steps=5, weight_decay=0.01, warmup_ratio=0.0
        )
        params = scalar_set(2.0)
        state = init_state(params)
        for t in range(1, 4):
            params, state = adamw_step(params, scalar_set(0.0), state, cfg)
            assert params.array("w")[0] == pytest.approx(
                2.0 * (1 - 0.1 * 0.01) ** t, rel=1e-12
            )

    def test_frozen_entries_bitwise_unchanged(self):
        base = np.array([[1.0, 2.0], [3.0, 4.0]])
        params = ParameterSet(
            {
                "frozen": (base, False),
                "live": (np.array([1.0]), True),
            }
        )
        grads = ParameterSet(
            {
                "frozen": (np.zeros((2, 2)), False),
                "live": (np.array([0.5]), True),
            }
        )
        state = init_state(params)
        for _ in range(5):
            params, state = adamw_step(params, grads, state, cfg := OptimizerConfig(
                lr=0.1, total_steps=5, warmup_ratio=0.0
            ))
        assert params.array("frozen").tobytes() == base.tobytes()
        assert params.array("live")[0] != 1.0

    def test_kernel_matches_snapshot_bitwise(self):
        # the update written into two scratch vectors against the one that
        # built its temporaries, over warmup and past it, with decay
        cfg = OptimizerConfig(lr=0.05, total_steps=20, weight_decay=0.01, warmup_ratio=0.1)
        rng = np.random.default_rng(8)
        p, m, v = rng.standard_normal(300), np.zeros(300), np.zeros(300)
        ref_p, ref_m, ref_v = p.copy(), m.copy(), v.copy()
        scratch = np.empty((2, 300))
        for step in range(8):
            g = rng.standard_normal(300)
            _adamw_flat(p, g, m, v, step, cfg, scratch)
            snapshot_adamw_flat(ref_p, g, ref_m, ref_v, step, cfg)
            for got, want in ((p, ref_p), (m, ref_m), (v, ref_v)):
                assert got.tobytes() == want.tobytes()

    def test_warmup_first_step_freezes_params_but_advances_moments(self):
        cfg = OptimizerConfig(lr=0.1, total_steps=100, warmup_ratio=0.1)
        params = scalar_set(1.0)
        out, state = adamw_step(params, scalar_set(1.0), init_state(params), cfg)
        assert out.array("w")[0] == 1.0  # lr(0) = 0
        assert state.layout.views(state.m_flat)["w"][0] != 0.0


def tiny_shard(rng, n_seqs, vocab, length=6):
    return [
        [int(x) for x in rng.integers(0, vocab, size=length)]
        for _ in range(n_seqs)
    ]


class TestLocalTrainRound:
    def setup_method(self):
        self.model = init_model(
            LmConfig(vocab_size=5, embed_dim=4, context=8), seed=3
        )
        self.shard = tiny_shard(np.random.default_rng(9), 10, 5)
        self.cfg = OptimizerConfig(lr=0.01, total_steps=50, warmup_ratio=0.0)

    def test_zero_steps_is_identity(self):
        out, state, loss = local_train_round(
            self.model,
            init_state(self.model.params),
            self.shard,
            self.cfg,
            np.random.default_rng(1),
            batch_size=4,
            steps=0,
        )
        assert out.params == self.model.params
        assert state.step == 0
        assert math.isnan(loss)

    def test_loss_decreases_after_50_steps(self):
        initial, _ = loss_and_grad(self.model, self.shard)
        trained, _, _ = local_train_round(
            self.model,
            init_state(self.model.params),
            self.shard,
            self.cfg,
            np.random.default_rng(1),
            batch_size=4,
            steps=50,
        )
        final, _ = loss_and_grad(trained, self.shard)
        assert final < initial

    def test_bitwise_determinism(self):
        runs = []
        for _ in range(2):
            m, s, loss = local_train_round(
                self.model,
                init_state(self.model.params),
                self.shard,
                self.cfg,
                np.random.default_rng(77),
                batch_size=3,
                steps=12,
            )
            runs.append((m.params, s.step, loss))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1:] == runs[1][1:]

    def test_state_carries_across_rounds(self):
        state = init_state(self.model.params)
        model = self.model
        rng = np.random.default_rng(4)
        model, state, _ = local_train_round(
            model, state, self.shard, self.cfg, rng, batch_size=5, steps=4
        )
        assert state.step == 4
        model, state, _ = local_train_round(
            model, state, self.shard, self.cfg, rng, batch_size=5, steps=4
        )
        assert state.step == 8

    def test_adapted_model_trains_only_factors(self):
        adapted = attach(self.model, ["embed.W"], rank=2, alpha=4.0, seed=1)
        trained, _, _ = local_train_round(
            adapted,
            init_state(adapted.params),
            self.shard,
            self.cfg,
            np.random.default_rng(2),
            batch_size=4,
            steps=10,
        )
        for name in ["embed.W", "rnn.U", "rnn.b", "out.b"]:
            assert (
                trained.params.array(name).tobytes()
                == adapted.params.array(name).tobytes()
            )
        assert not np.array_equal(
            trained.params.array("embed.W.lora.B"),
            adapted.params.array("embed.W.lora.B"),
        )

    def test_empty_shard_rejected(self):
        with pytest.raises(ArgumentError):
            local_train_round(
                self.model,
                init_state(self.model.params),
                [],
                self.cfg,
                np.random.default_rng(0),
                batch_size=4,
                steps=1,
            )

    def test_mean_loss_is_mean_of_step_losses(self):
        # single batch per step on a 1-sequence shard keeps losses comparable
        shard = [self.shard[0]]
        _, _, loss = local_train_round(
            self.model,
            init_state(self.model.params),
            shard,
            self.cfg,
            np.random.default_rng(5),
            batch_size=1,
            steps=1,
        )
        first, _ = loss_and_grad(self.model, [shard[0]])
        assert loss == pytest.approx(first, rel=1e-12)

    def test_one_set_built_per_round(self, monkeypatch):
        # one ParameterSet, the trained one, per round, however many steps
        adapted = attach(self.model, ["embed.W", "rnn.U"], rank=2, alpha=4.0, seed=1)
        built = []
        from_vectors = ParameterSet.from_vectors.__func__

        def counting_sets(cls, *args):
            built.append(cls)
            return from_vectors(cls, *args)

        monkeypatch.setattr(ParameterSet, "from_vectors", classmethod(counting_sets))
        for steps in (1, 12):
            built.clear()
            local_train_round(
                adapted,
                init_state(adapted.params),
                self.shard,
                self.cfg,
                np.random.default_rng(0),
                batch_size=4,
                steps=steps,
            )
            assert built == [ParameterSet]

    def test_state_of_other_structure_rejected(self):
        adapted = attach(self.model, ["embed.W"], rank=2, alpha=4.0, seed=1)
        with pytest.raises(StructureError):
            local_train_round(
                adapted,
                init_state(self.model.params),
                self.shard,
                self.cfg,
                np.random.default_rng(0),
                batch_size=4,
                steps=1,
            )

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_blown_up_entry_raises_named_numerical_error(self):
        adapted = attach(self.model, ["rnn.U"], rank=2, alpha=4.0, seed=1)
        # B starts at zero, so the forward pass is untouched, but B's
        # gradient A.T @ dU overflows the squared gradient norm
        blown = adapted.with_params(
            replace_values(adapted.params, {"rnn.U.lora.A": np.full((4, 2), 1e300)})
        )
        with pytest.raises(NumericalError, match=r"step 1:.*'rnn\.U\.lora\.B'"):
            local_train_round(
                blown,
                init_state(blown.params),
                self.shard,
                self.cfg,
                np.random.default_rng(0),
                batch_size=4,
                steps=3,
            )


def composed_round(model, shard, cfg, rng, batch_size, steps):
    """local_train_round spelled out with the public ParameterSet functions."""
    params, state = model.params, init_state(model.params)
    pending = []
    for _ in range(steps):
        if not pending:
            order = rng.permutation(len(shard))
            pending = [order[i : i + batch_size] for i in range(0, len(shard), batch_size)]
        batch = [shard[i] for i in pending.pop(0)]
        _, grads = loss_and_grad(model.with_params(params), batch, rng=rng)
        grads = clip_gradients(grads, cfg.max_grad_norm)
        params, state = adamw_step(params, grads, state, cfg)
    return params, state


def _plain():
    return init_model(LmConfig(vocab_size=7, embed_dim=5, context=8), seed=11)


def _adapted(dropout):
    return attach(
        _plain(), ["embed.W", "rnn.U"], rank=4, alpha=8.0, dropout_p=dropout, seed=2
    )


_SHARD = tiny_shard(np.random.default_rng(3), 10, 7, length=9)
_TAIL_SHARD = _SHARD[:5] + [[1, 2, 3, 4]]

EQUIVALENCE_CASES = {
    "rank0": (_plain, _SHARD, 0.3, 4),
    "rank0-out.b-frozen": (
        lambda: _plain().with_params(with_flags(_plain().params, {"out.b": False})),
        _SHARD,
        0.3,
        4,
    ),
    "rank4-dropout": (lambda: _adapted(0.1), _SHARD, 0.3, 4),
    "tiny-max-grad-norm": (lambda: _adapted(0.1), _SHARD, 1e-4, 4),
    "short-tail-window": (lambda: _adapted(0.0), _TAIL_SHARD, 0.3, 6),
}


@pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
def test_flat_round_matches_public_composition(case):
    make, shard, max_norm, batch_size = EQUIVALENCE_CASES[case]
    model = make()
    cfg = OptimizerConfig(
        lr=0.05, total_steps=20, max_grad_norm=max_norm, warmup_ratio=0.1
    )
    steps = 7
    trained, state, _ = local_train_round(
        model,
        init_state(model.params),
        shard,
        cfg,
        np.random.default_rng(5),
        batch_size=batch_size,
        steps=steps,
    )
    params, ref_state = composed_round(
        model, shard, cfg, np.random.default_rng(5), batch_size, steps
    )

    assert state.step == ref_state.step == steps
    m, v, ref_m, ref_v = (
        s.layout.views(vec)
        for s in (state, ref_state)
        for vec in (s.m_flat, s.v_flat)
    )
    for name, t, flag in model.params.items():
        got = trained.params.array(name)
        if flag:
            assert np.max(np.abs(got - params.array(name))) <= 1e-12, name
            assert np.max(np.abs(m[name] - ref_m[name])) <= 1e-12, name
            assert np.max(np.abs(v[name] - ref_v[name])) <= 1e-12, name
            assert not np.array_equal(got, t), name
        else:
            assert trained.params.array(name).tobytes() == t.tobytes()
            assert params.array(name).tobytes() == t.tobytes()
            assert name not in m


def test_equivalence_cases_exercise_their_branches():
    # the tiny norm clips every step; the tail shard batches two lengths
    model = _adapted(0.1)
    _, grads = loss_and_grad(model, _SHARD[:4], rng=np.random.default_rng(0))
    assert l2_norm(grads) > EQUIVALENCE_CASES["tiny-max-grad-norm"][2]
    assert len({len(s) for s in _TAIL_SHARD}) == 2


@pytest.mark.parametrize("case", ["rank0", "rank0-out.b-frozen", "rank4-dropout"])
def test_round_on_one_workspace_matches_snapshot_round(case):
    # more than two epochs of a shard whose batches of 4 leave a short last
    # batch, some of them two widths: the round's one workspace, reused
    # across every step and shape, gives the snapshot step's round bit for
    # bit
    model = EQUIVALENCE_CASES[case][0]()
    cfg = OptimizerConfig(lr=0.05, total_steps=20, max_grad_norm=0.3, warmup_ratio=0.1)
    trained, got, loss = local_train_round(
        model, init_state(model.params), _TAIL_SHARD, cfg, np.random.default_rng(5), batch_size=4, steps=7
    )
    p, want, ref_loss = snapshot_train_round(
        model, init_state(model.params), as_windows(_TAIL_SHARD), cfg, np.random.default_rng(5), batch_size=4, steps=7
    )
    assert trained.params.trainable_flat.tobytes() == p.tobytes()
    assert got.m_flat.tobytes() == want.m_flat.tobytes()
    assert got.v_flat.tobytes() == want.v_flat.tobytes()
    assert got.step == want.step == 7
    assert loss == ref_loss


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("case, step", [("rank0", 6), ("rank4-dropout", 4)])
def test_blow_up_at_a_later_step_names_that_step_and_entry(case, step):
    # an absurd learning rate lets the first steps pass and then overflows
    # the weights; the error names the step and the entry as the snapshot
    # round, which builds each step's gradient afresh, does
    model = EQUIVALENCE_CASES[case][0]()
    cfg = OptimizerConfig(lr=1e100, total_steps=20, warmup_ratio=0.1)
    with pytest.raises(NumericalError, match=rf"optimizer step {step}: .*entry '") as got:
        local_train_round(
            model, init_state(model.params), _TAIL_SHARD, cfg, np.random.default_rng(5),
            batch_size=4, steps=12,
        )
    with pytest.raises(NumericalError) as want:
        snapshot_train_round(
            model, init_state(model.params), as_windows(_TAIL_SHARD), cfg,
            np.random.default_rng(5), batch_size=4, steps=12,
        )
    assert str(got.value) == str(want.value)


# -- no numpy Python frame inside a step ---------------------------------------

NUMPY_DIR = os.path.dirname(np.__file__) + os.sep


def numpy_frames(fn) -> int:
    """The Python frames under numpy's package entered while fn runs:
    its wrappers (np.dot's dispatcher, np.take, np.sum, ndarray.sum's
    _methods, ...), which the C entry points they dispatch to skip."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename.startswith(NUMPY_DIR):
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return count


def test_numpy_frames_counts_a_wrapper():
    a = np.ones((2, 2))
    assert numpy_frames(lambda: np.dot(a, a)) >= 1
    assert numpy_frames(lambda: a.dot(a)) == 0


# 23 full windows and a tail row: batches of 4 make a 6-step epoch, so the
# steps counted below draw one permutation, and at seed 4 the tail row's
# batch, two widths, is step 5
_GUARD_SHARD = tiny_shard(np.random.default_rng(8), 23, 7, length=9) + [[1, 2, 3, 4]]
_GUARD_SEED = 4

STEP_GUARD_CASES = {
    "rank4-dropout": lambda: _adapted(0.1),
    "full-d16": lambda: init_model(LmConfig(vocab_size=7, embed_dim=16, context=8), seed=11),
}


@pytest.mark.parametrize("case", sorted(STEP_GUARD_CASES))
def test_a_training_step_enters_no_numpy_python_frame(case):
    # the round's own numpy calls (checking the shard, the epoch's
    # permutation, the mean loss) come once; 4 more steps must add none
    model = STEP_GUARD_CASES[case]()
    cfg = OptimizerConfig(lr=0.05, total_steps=20, max_grad_norm=0.3, warmup_ratio=0.1)
    order = np.random.default_rng(_GUARD_SEED).permutation(len(_GUARD_SHARD))
    assert list(order).index(len(_GUARD_SHARD) - 1) // 4 == 4

    def train(steps):
        local_train_round(
            model, init_state(model.params), _GUARD_SHARD, cfg,
            np.random.default_rng(_GUARD_SEED), batch_size=4, steps=steps,
        )

    assert numpy_frames(lambda: train(2)) == numpy_frames(lambda: train(6))


def test_a_perplexity_block_enters_no_numpy_python_frame():
    model = _adapted(0.1)
    ctx = model.cfg.context
    rng = np.random.default_rng(3)
    one, three = (rng.integers(0, 7, size=k * EVAL_BLOCK * ctx + 5) for k in (1, 3))
    assert numpy_frames(lambda: perplexity_of(model, one)) == numpy_frames(
        lambda: perplexity_of(model, three)
    )
