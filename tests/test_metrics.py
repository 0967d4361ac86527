import json
import math

import numpy as np
import pytest

from deltafed.errors import ArgumentError
from deltafed.metrics import (
    RoundRecord,
    bleu,
    emit_report,
    format_rows,
)
from deltafed.model import LmConfig, init_model, perplexity_of
from oracles import forward, replace_values
from rounds_csv import parse_rounds_csv


class TestBleu:
    def test_identity_is_one(self):
        for h in ([1], [1, 2], [3, 1, 4, 1, 5], list(range(10))):
            assert bleu(h, [h]) == pytest.approx(1.0, abs=1e-12)

    def test_hand_counted_clipping_case(self):
        # clipped unigram precision 1/4, BP = min(1, e^{1-2/4}) = 1
        assert bleu(list("aaaa"), [list("ab")], max_n=1) == pytest.approx(0.25)

    def test_disjoint_vocab_is_zero(self):
        assert bleu([1, 2, 3], [[4, 5, 6]]) == 0.0

    def test_zero_higher_order_precision_is_zero(self):
        assert bleu(["a", "b"], [["a", "c"]], max_n=2) == 0.0

    def test_empty_hypothesis_is_zero(self):
        assert bleu([], [[1, 2]]) == 0.0

    def test_no_references_rejected(self):
        with pytest.raises(ArgumentError):
            bleu([1], [])

    def test_clip_caps_at_reference_count(self):
        # "a a" vs ref "a": one clipped match out of two unigrams
        assert bleu(list("aa"), [list("a")], max_n=1) == pytest.approx(0.5)

    def test_brevity_penalty_exact(self):
        # c=1, r=3: BP = e^{-2}, unigram precision 1
        assert bleu([7], [[7, 8, 9]], max_n=1) == pytest.approx(math.exp(-2.0))

    def test_closest_reference_ties_prefer_shorter(self):
        # lens 1 and 3 are equally far from c=2; r=1 keeps BP at 1
        score = bleu(["x", "q"], [["x"], ["y", "z", "w"]], max_n=1)
        assert score == pytest.approx(0.5)

    def test_orders_beyond_hypothesis_length_are_skipped(self):
        assert bleu([5], [[5]], max_n=4) == pytest.approx(1.0)

    def test_adding_reference_never_decreases(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            hyp = list(rng.integers(0, 5, size=rng.integers(1, 8)))
            refs = [list(rng.integers(0, 5, size=rng.integers(1, 8)))]
            base = bleu(hyp, refs)
            refs.append(list(rng.integers(0, 5, size=len(refs[0]))))
            assert bleu(hyp, refs) >= base - 1e-12

    def test_score_bounded(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            hyp = list(rng.integers(0, 4, size=rng.integers(0, 7)))
            refs = [
                list(rng.integers(0, 4, size=rng.integers(1, 7)))
                for _ in range(rng.integers(1, 4))
            ]
            s = bleu(hyp, refs)
            assert 0.0 <= s <= 1.0 + 1e-12


def uniform_model(vocab=7):
    m = init_model(LmConfig(vocab_size=vocab, embed_dim=3, context=5), seed=0)
    zeros = {n: np.zeros(m.params.array(n).shape) for n in m.params.names()}
    return m.with_params(replace_values(m.params, zeros))


class TestCorpusPerplexity:
    def test_uniform_model_gives_vocab_size(self):
        m = uniform_model(vocab=7)
        ids = list(np.random.default_rng(1).integers(0, 7, size=40))
        assert perplexity_of(m, ids) == pytest.approx(7.0, rel=1e-12)

    def test_matches_per_token_loop_oracle(self):
        m = init_model(LmConfig(vocab_size=5, embed_dim=4, context=4), seed=9)
        ids = list(np.random.default_rng(2).integers(0, 5, size=23))
        total, positions = 0.0, 0
        ctx = m.cfg.context
        for start in range(0, len(ids) - 1, ctx):
            window = ids[start : start + ctx + 1]
            if len(window) < 2:
                break
            probs, _ = forward(m, window[:-1])
            for i in range(len(window) - 1):
                total += -math.log(probs[i, window[i + 1]])
                positions += 1
        oracle = math.exp(total / positions)
        assert perplexity_of(m, ids) == pytest.approx(oracle, rel=1e-9)

    def test_decreases_under_training(self):
        from deltafed.optim import OptimizerConfig, init_state, local_train_round

        m = init_model(LmConfig(vocab_size=4, embed_dim=4, context=6), seed=5)
        ids = [0, 1, 2, 3] * 30  # learnable structure, not noise
        shard = [ids[i : i + 7] for i in range(0, 112, 7)]
        cfg = OptimizerConfig(lr=0.02, total_steps=50, warmup_ratio=0.0)
        before = perplexity_of(m, ids)
        rng = np.random.default_rng(0)
        state = init_state(m.params)
        mid, state, _ = local_train_round(
            m, state, shard, cfg, rng, batch_size=4, steps=25,
        )
        after, _, _ = local_train_round(
            mid, state, shard, cfg, rng, batch_size=4, steps=25,
        )
        p_mid = perplexity_of(mid, ids)
        p_after = perplexity_of(after, ids)
        assert p_mid < before
        assert p_after < p_mid


class TestRoundRecord:
    def test_validation(self):
        ok = dict(
            round=1, mode="federated", train_loss=0.5, perplexity=2.0,
            wall_ms=10, uplink_bytes=1, downlink_bytes=2,
        )
        RoundRecord(**ok)
        with pytest.raises(ArgumentError):
            RoundRecord(**{**ok, "round": -1})
        with pytest.raises(ArgumentError):
            RoundRecord(**{**ok, "mode": "hybrid"})
        with pytest.raises(ArgumentError):
            RoundRecord(**{**ok, "train_loss": -0.1})
        with pytest.raises(ArgumentError):
            RoundRecord(**{**ok, "perplexity": 0.5})
        with pytest.raises(ArgumentError):
            RoundRecord(**{**ok, "uplink_bytes": -1})

    def test_nan_loss_allowed_for_eval_only(self):
        rec = RoundRecord(0, "central", float("nan"), 3.0, 0, 0, 0)
        assert math.isnan(rec.train_loss)


def sample_records():
    return [
        RoundRecord(1, "federated", 1.0 / 3.0, 4.5, 12, 100, 200),
        RoundRecord(2, "federated", 0.25, 4.0, 11, 100, 50),
        RoundRecord(1, "central", 0.5, 3.875, 7, 0, 0),
        RoundRecord(2, "central", 0.4375, 3.75, 8, 0, 0),
    ]


class TestReport:
    def test_single_record_two_lines(self, tmp_path):
        csv_path, _ = emit_report([sample_records()[0]], tmp_path)
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == (
            "round,mode,train_loss,perplexity,wall_ms,uplink_bytes,downlink_bytes"
        )
        assert lines[1] == "1,federated,0.333333333,4.5,12,100,200"

    def test_reparse_reproduces_records(self, tmp_path):
        records = sample_records()
        csv_path, _ = emit_report(records, tmp_path)
        parsed = parse_rounds_csv(csv_path.read_text())
        assert len(parsed) == len(records)
        for a, b in zip(parsed, records):
            assert a.round == b.round and a.mode == b.mode
            assert a.wall_ms == b.wall_ms
            assert a.uplink_bytes == b.uplink_bytes
            assert a.downlink_bytes == b.downlink_bytes
            assert a.perplexity == b.perplexity or (
                a.perplexity == pytest.approx(b.perplexity, rel=1e-8)
            )
            assert a.train_loss == pytest.approx(b.train_loss, rel=1e-8)

    def test_format_parse_format_is_idempotent(self, tmp_path):
        rows = format_rows(sample_records())
        reparsed = parse_rounds_csv("\n".join(rows))
        assert format_rows(reparsed) == rows

    def test_json_totals_equal_csv_sums(self, tmp_path):
        records = sample_records()
        csv_path, json_path = emit_report(records, tmp_path)
        summary = json.loads(json_path.read_text())
        parsed = parse_rounds_csv(csv_path.read_text())
        for mode in ("federated", "central"):
            rows = [r for r in parsed if r.mode == mode]
            slot = summary["modes"][mode]
            assert slot["total_uplink_bytes"] == sum(r.uplink_bytes for r in rows)
            assert slot["total_downlink_bytes"] == sum(
                r.downlink_bytes for r in rows
            )
            assert slot["total_wall_ms"] == sum(r.wall_ms for r in rows)
            assert slot["rounds"] == len(rows)
            assert slot["final_train_loss"] == pytest.approx(
                rows[-1].train_loss, rel=1e-8
            )

    def test_non_contiguous_rounds_rejected(self, tmp_path):
        records = [
            RoundRecord(1, "local", 0.5, 2.0, 0, 0, 0),
            RoundRecord(3, "local", 0.4, 2.0, 0, 0, 0),
        ]
        with pytest.raises(ArgumentError, match="contiguous"):
            emit_report(records, tmp_path)

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ArgumentError):
            emit_report([], tmp_path)

    def test_summary_extra_merged_and_collisions_rejected(self, tmp_path):
        records = [sample_records()[0]]
        _, json_path = emit_report(records, tmp_path, {"bleu": {"federated": 0.5}})
        assert json.loads(json_path.read_text())["bleu"] == {"federated": 0.5}
        with pytest.raises(ArgumentError, match="collides"):
            emit_report(records, tmp_path, {"modes": {}})

    def test_nan_loss_becomes_json_null(self, tmp_path):
        records = [RoundRecord(0, "central", float("nan"), 2.0, 0, 0, 0)]
        csv_path, json_path = emit_report(records, tmp_path)
        assert ",nan," in csv_path.read_text()
        assert json.loads(json_path.read_text())["modes"]["central"][
            "final_train_loss"
        ] is None

    def test_bad_header_rejected(self):
        with pytest.raises(ArgumentError):
            parse_rounds_csv("foo,bar\n1,2\n")
