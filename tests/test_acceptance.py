"""End-to-end acceptance checks, one test per criterion.

Each test appends a "[criterion N] PASS/FAIL" line to CRITERION_LINES; the
conftest hook echoes them after the run so they survive output capture.
Tolerances are fixed here and are not tuning knobs.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import loss_and_grad, replace_values
from test_model import finite_difference_grads, max_rel_error

from deltafed.aggregate import ClientUpdate, fedavg_aggregate, gradualdiff_aggregate
from deltafed.config import ExperimentConfig, override
from deltafed.harness import compare_modes, run_experiment
from deltafed.lora import attach
from deltafed.metrics import bleu
from deltafed.model import LmConfig, LmModel, init_model, perplexity_of
from deltafed.params import ParameterSet, add_delta
from deltafed.wire import HEADER_LEN, deserialize_params, serialize_params, serialized_size

CRITERION_LINES = []


@contextmanager
def criterion(n: int, summary: str):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        CRITERION_LINES.append(f"[criterion {n}] FAIL  {summary}")
        raise
    CRITERION_LINES.append(
        f"[criterion {n}] PASS  {summary} ({time.perf_counter() - t0:.1f}s)"
    )


def random_param_set(rng, n_entries, max_dim=32):
    entries = []
    flags = [True] + [bool(rng.integers(2)) for _ in range(n_entries - 1)]
    rng.shuffle(flags)
    if not any(flags):
        flags[0] = True
    for j in range(n_entries):
        shape = tuple(int(rng.integers(1, max_dim + 1)) for _ in range(int(rng.integers(1, 3))))
        entries.append((f"e{j}", rng.standard_normal(shape), flags[j]))
    return ParameterSet(entries)


def trainable_bytes(params):
    return {
        n: params.array(n).tobytes() for n in params.trainable_names()
    }


class TestCriterion1:
    def test_delta_aggregation_equals_fedavg_of_locals(self):
        with criterion(
            1,
            "gradualdiff == uniform fedavg of reconstructed locals "
            "(100 random instances, rtol 1e-9)",
        ):
            rng = np.random.default_rng(424242)
            for _ in range(100):
                k = int(rng.integers(1, 9))
                global_ = random_param_set(rng, int(rng.integers(2, 7)))
                deltas = []
                for _ in range(k):
                    vals = {
                        n: rng.standard_normal(global_.array(n).shape)
                        for n in global_.trainable_names()
                    }
                    deltas.append(replace_values(global_.trainable_subset(), vals))

                via_delta = gradualdiff_aggregate(
                    global_,
                    [
                        ClientUpdate(i, 1, d)
                        for i, d in enumerate(deltas)
                    ],
                )
                via_fedavg = fedavg_aggregate(
                    [
                        ClientUpdate(i, 1, add_delta(global_, d))
                        for i, d in enumerate(deltas)
                    ]
                )
                for name in global_.trainable_names():
                    np.testing.assert_allclose(
                        via_delta.array(name),
                        via_fedavg.array(name),
                        rtol=1e-9,
                        atol=1e-12,
                    )


class TestCriterion2:
    def test_analytic_gradients_match_finite_differences(self):
        with criterion(
            2,
            "analytic grads match central differences on 20 models "
            "(rel err <= 1e-4, zero base grads when adapted)",
        ):
            start = time.perf_counter()
            rng = np.random.default_rng(77)
            for i in range(20):
                cfg = LmConfig(
                    vocab_size=5 + i % 6, embed_dim=4 + i % 4, context=6
                )
                model = init_model(cfg, seed=i)
                if i % 2 == 1:
                    model = attach(
                        model, ["embed.W", "rnn.U"], 1 + i % 2, 4.0, seed=i
                    )
                    # give B signal so its gradient is informative
                    model = model.with_params(
                        replace_values(model.params,
                            {
                                n: 0.1 * rng.standard_normal(model.params.array(n).shape)
                                for n in model.params.trainable_names()
                                if n.endswith(".lora.B")
                            }
                        )
                    )
                assert sum(a.size for _, a, _ in model.params.items()) <= 500
                batch = [
                    list(rng.integers(0, cfg.vocab_size, size=6)),
                    list(rng.integers(0, cfg.vocab_size, size=4)),
                ]
                _, grads = loss_and_grad(model, batch)
                if model.adapters:
                    for name, _, flag in model.params.items():
                        if not flag:
                            assert np.all(grads.array(name) == 0.0)
                numeric = finite_difference_grads(model, batch, eps=1e-5)
                assert max_rel_error(grads, numeric) <= 1e-4
            assert time.perf_counter() - start < 30.0


class TestCriterion3:
    def test_uplink_bytes_exact_and_reduced(self, tmp_path):
        with criterion(
            3,
            "delta uplink == trainable layout bytes exactly; ratio < "
            "P_lora/P_base + 0.02; quantized >= 6x for >= 4 KiB payloads",
        ):
            corpus = tmp_path / "c.txt"
            corpus.write_bytes(
                ExperimentConfig().resolved_corpus_path().read_bytes()[:4000]
            )
            cfg = ExperimentConfig(
                corpus_path=str(corpus),
                rounds=2,
                clients=2,
                context=8,
                embed_dim=32,
                lr=0.01,
                batch_size=16,
                lora_rank=4,
                seed=0,
            )
            res = run_experiment(cfg, report=False)
            params = res.model.params

            lora_payload = serialized_size(params, "trainable")
            per_round = cfg.clients * (HEADER_LEN + lora_payload)
            for rec in res.records:
                assert rec.uplink_bytes == per_round

            full_payload = serialized_size(params, "all")
            p_lora = sum(
                params.array(n).size for n in params.trainable_names()
            )
            p_base = sum(a.size for _, a, _ in params.items()) - p_lora
            ratio = (HEADER_LEN + lora_payload) / (HEADER_LEN + full_payload)
            assert ratio < p_lora / p_base + 0.02

            # quantization clause, on a payload comfortably past 4 KiB
            big = ExperimentConfig(
                corpus_path=str(corpus),
                rounds=1,
                clients=1,
                context=8,
                embed_dim=256,
                lr=0.01,
                batch_size=64,
                lora_rank=16,
                seed=0,
            )
            plain = run_experiment(big, report=False)
            quant = run_experiment(
                override(big, quantize_payload=True), report=False
            )
            f32_payload = serialized_size(plain.model.params, "trainable")
            q4_payload = serialized_size(
                plain.model.params, "trainable", quantize_payload=True
            )
            assert f32_payload >= 4096
            assert plain.records[0].uplink_bytes == HEADER_LEN + f32_payload
            assert quant.records[0].uplink_bytes == HEADER_LEN + q4_payload
            assert plain.records[0].uplink_bytes >= 6 * quant.records[0].uplink_bytes


class TestCriterion4:
    SEEDS = (0, 2, 3)

    def test_convergence_parity_and_local_gap(self):
        with criterion(
            4,
            "federated within 15% of central on final train loss; local "
            "average strictly worse on held-out perplexity (3 seeds)",
        ):
            start = time.perf_counter()
            for seed in self.SEEDS:
                cfg = ExperimentConfig(
                    rounds=15,
                    clients=5,
                    seed=seed,
                    lr=0.01,
                    batch_size=16,
                    lora_rank=4,
                )
                fed = run_experiment(cfg, report=False).records[-1]
                cen = run_experiment(
                    override(cfg, mode="central"), report=False
                ).records[-1]
                loc = run_experiment(
                    override(cfg, mode="local"), report=False
                ).records[-1]
                parity = abs(fed.train_loss - cen.train_loss) / cen.train_loss
                assert parity <= 0.15, f"seed {seed}: parity {parity:.3f}"
                assert loc.perplexity > fed.perplexity, (
                    f"seed {seed}: local ppl {loc.perplexity:.4f} not worse "
                    f"than federated {fed.perplexity:.4f}"
                )
            assert time.perf_counter() - start < 600.0


class TestCriterion5:
    def test_metric_oracles(self):
        with criterion(
            5,
            "uniform-model perplexity == V (1e-9); BLEU identity == 1; "
            "clipped-unigram case == 0.25",
        ):
            cfg = LmConfig(vocab_size=7, embed_dim=4, context=8)
            model = init_model(cfg, seed=0)
            zeroed = model.with_params(
                replace_values(model.params,
                    {
                        n: np.zeros(model.params.array(n).shape)
                        for n in model.params.names()
                    }
                )
            )
            ppl = perplexity_of(zeroed, [0, 1, 2, 3, 4, 5, 6, 0, 1])
            assert abs(ppl - 7.0) <= 1e-9 * 7.0

            assert bleu(list("abcd"), [list("abcd")]) == 1.0

            # hypothesis "a a a a" vs reference "a b": one clipped unigram
            # match out of four -> p1 = 1/4, BP = min(1, e^{1-2/4}) = 1
            assert bleu(["a"] * 4, [["a", "b"]], max_n=1) == pytest.approx(
                0.25, abs=1e-12
            )


class TestCriterion6:
    def test_transport_equivalence_and_wire_property(self, tmp_path):
        with criterion(
            6,
            "memory and TCP runs bitwise-identical (K=3, T=5); 1000 wire "
            "round trips exact at f32 precision",
        ):
            start = time.perf_counter()
            cfg = ExperimentConfig(
                rounds=5, clients=3, seed=7, lr=0.01, batch_size=16, lora_rank=4
            )
            mem = run_experiment(cfg, report=False)
            tcp = run_experiment(override(cfg, transport="tcp"), report=False)
            assert {
                n: mem.model.params.array(n).tobytes()
                for n in mem.model.params.names()
            } == {
                n: tcp.model.params.array(n).tobytes()
                for n in tcp.model.params.names()
            }
            assert mem.ledger.byte_table() == tcp.ledger.byte_table()

            rng = np.random.default_rng(99)
            for _ in range(1000):
                original = random_param_set(rng, int(rng.integers(1, 5)), max_dim=8)
                back = deserialize_params(
                    serialize_params(original, "all"),
                    trainable=set(original.trainable_names()),
                )
                for name, t, flag in original.items():
                    expected = t.astype(np.float32).astype(np.float64)
                    assert np.array_equal(back.array(name), expected)
                    assert back.array(name).shape == t.shape
                    assert (name in back.trainable_names()) == flag
            assert time.perf_counter() - start < 60.0


class TestCriterion7:
    def test_compare_reports_are_byte_identical(self, tmp_path):
        with criterion(
            7,
            "two compare runs with one config and seed emit byte-identical CSV",
        ):
            corpus = tmp_path / "c.txt"
            corpus.write_bytes(
                ExperimentConfig().resolved_corpus_path().read_bytes()[:6000]
            )
            cfg = ExperimentConfig(
                corpus_path=str(corpus),
                rounds=3,
                clients=3,
                context=8,
                embed_dim=8,
                lr=0.01,
                batch_size=8,
                lora_rank=2,
                seed=11,
            )
            csv1, _ = compare_modes(cfg, tmp_path / "a")
            csv2, _ = compare_modes(cfg, tmp_path / "b")
            assert csv1.read_bytes() == csv2.read_bytes()
