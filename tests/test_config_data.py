from collections import Counter
from dataclasses import fields
from typing import get_type_hints

import numpy as np
import pytest

from deltafed.config import (
    ExperimentConfig,
    load_config,
    override,
    parse_config,
    save_config,
)
from deltafed.data import partition_iid, sequences_of, split_stream
from deltafed.errors import ArgumentError, ConfigError


# A valid non-default raw value for every config key.
NON_DEFAULT = {
    "mode": "central",
    "rounds": "3",
    "clients": "2",
    "seed": "7",
    "corpus_path": "corpus.txt",
    "split": "0.5",
    "context": "8",
    "embed_dim": "8",
    "lr": "0.01",
    "weight_decay": "0",
    "max_grad_norm": "1.5",
    "warmup_ratio": "0.1",
    "batch_size": "4",
    "local_epochs": "2",
    "lora_rank": "2",
    "lora_alpha": "4",
    "lora_dropout": "0",
    "lora_targets": "rnn.U",
    "aggregation": "fedavg",
    "delta_form": "dense",
    "delta_weighting": "samples",
    "quantize_payload": "true",
    "transport": "tcp",
    "tcp_host": "localhost",
    "tcp_port": "5000",
    "output_dir": "out",
}


class TestConfigParse:
    def test_empty_file_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.rounds == 15
        assert cfg.clients == 5
        assert cfg.weight_decay == 0.001
        assert cfg.max_grad_norm == 0.3
        assert cfg.warmup_ratio == 0.03
        assert cfg.lr == 5e-5
        assert cfg.lora_rank == 4
        assert cfg.lora_alpha == 8.0
        assert cfg.mode == "federated"

    def test_comments_and_blanks_skipped(self):
        cfg = parse_config("# a comment\n\nrounds = 3\n  seed=7\n")
        assert cfg.rounds == 3 and cfg.seed == 7

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="epochs_per_round"):
            parse_config("epochs_per_round=2")

    def test_bad_value_named(self):
        with pytest.raises(ConfigError, match="rounds"):
            parse_config("rounds=many")
        with pytest.raises(ConfigError, match="quantize_payload"):
            parse_config("quantize_payload=yes")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("seed=1\nseed=2")

    def test_zero_clients_rejected(self):
        with pytest.raises(ConfigError, match="clients"):
            parse_config("clients=0")

    def test_split_bounds(self):
        with pytest.raises(ConfigError, match="split"):
            parse_config("split=1.0")

    @pytest.mark.parametrize("raw", ["inf", "1e400"])
    @pytest.mark.parametrize(
        "key",
        [
            "split",
            "lr",
            "weight_decay",
            "max_grad_norm",
            "warmup_ratio",
            "lora_alpha",
            "lora_dropout",
        ],
    )
    def test_non_finite_float_rejected(self, key, raw):
        with pytest.raises(ConfigError, match=rf"^invalid value for '{key}': inf$"):
            parse_config(f"{key}={raw}")

    @pytest.mark.parametrize(
        "field", ["mode", "aggregation", "delta_form", "delta_weighting", "transport"]
    )
    def test_unknown_choice_named(self, field):
        with pytest.raises(ConfigError, match=rf"^invalid value for '{field}': 'bogus'$"):
            parse_config(f"{field}=bogus")

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match=r"^invalid value for 'seed': -1$"):
            parse_config("seed=-1")

    @pytest.mark.parametrize("key", [f.name for f in fields(ExperimentConfig)])
    def test_every_key_parses_to_its_declared_type(self, key):
        raw = NON_DEFAULT[key]
        value = getattr(parse_config(f"{key}={raw}"), key)
        assert type(value) is get_type_hints(ExperimentConfig)[key]
        assert value != getattr(ExperimentConfig(), key)

    def test_dense_requires_lora(self):
        with pytest.raises(ConfigError, match="delta_form"):
            parse_config("delta_form=dense\nlora_rank=0")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config("rounds 3")

    def test_bool_parsing(self):
        assert parse_config("quantize_payload=true").quantize_payload is True
        assert parse_config("quantize_payload=false").quantize_payload is False

    def test_targets_list(self):
        cfg = parse_config("lora_targets=embed.W, rnn.U")
        assert cfg.targets() == ["embed.W", "rnn.U"]


class TestConfigFiles:
    def test_save_load_round_trip(self, tmp_path):
        cfg = ExperimentConfig(
            rounds=4,
            clients=2,
            lr=0.01,
            quantize_payload=True,
            corpus_path=str(tmp_path / "c.txt"),
            lora_dropout=0.0,
        )
        (tmp_path / "c.txt").write_text("hello corpus text")
        path = save_config(cfg, tmp_path / "exp.cfg")
        assert load_config(path) == cfg

    def test_defaults_round_trip(self, tmp_path):
        cfg = ExperimentConfig()
        path = save_config(cfg, tmp_path / "exp.cfg")
        assert load_config(path) == cfg

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.cfg")

    def test_missing_corpus_rejected_at_load(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text(f"corpus_path={tmp_path}/nope.txt\n")
        with pytest.raises(ConfigError, match="corpus"):
            load_config(p)

    def test_bundled_corpus_resolves(self):
        cfg = ExperimentConfig()
        assert cfg.resolved_corpus_path().name == "corpus.txt"

    def test_override_skips_none(self):
        cfg = ExperimentConfig()
        assert override(cfg, mode=None) is cfg
        assert override(cfg, mode="central").mode == "central"


class TestSplitStream:
    def test_front_back_split(self):
        train, val = split_stream(list(range(10)), 0.8)
        assert train.tolist() == list(range(8))
        assert val.tolist() == [8, 9]

    def test_too_small_rejected(self):
        with pytest.raises(ArgumentError):
            split_stream([1, 2, 3], 0.9)


class TestSequencesOf:
    def test_exact_windows(self):
        seqs = sequences_of(list(range(9)), context=2)
        assert seqs.tolist() == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]

    def test_short_tail_dropped(self):
        seqs = sequences_of(list(range(10)), context=2)
        assert seqs.tolist() == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]  # lone token 9 dropped

    def test_two_token_tail_kept(self):
        seqs = sequences_of(list(range(11)), context=2)
        assert seqs.tolist()[-1] == [9, 10]


class TestPartition:
    def seqs(self, n):
        return [[i, i + 1] for i in range(n)]

    def test_k1_is_permutation_of_all(self):
        seqs = self.seqs(7)
        shards = partition_iid(seqs, 1, seed=3)
        assert len(shards) == 1
        assert sorted(map(tuple, shards[0].tolist())) == sorted(map(tuple, seqs))
        assert shards[0].tolist() != seqs  # seeded shuffle actually permutes

    def test_even_division(self):
        shards = partition_iid(self.seqs(10), 5, seed=0)
        assert [len(s) for s in shards] == [2, 2, 2, 2, 2]

    def test_near_even_division(self):
        shards = partition_iid(self.seqs(11), 3, seed=0)
        sizes = sorted(len(s) for s in shards)
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 11

    def test_disjoint_cover_multiset(self):
        seqs = self.seqs(23)
        shards = partition_iid(seqs, 4, seed=9)
        merged = Counter(tuple(s) for shard in shards for s in shard.tolist())
        assert merged == Counter(tuple(s) for s in seqs)

    def test_seeded_determinism(self):
        seqs = self.seqs(12)
        a = partition_iid(seqs, 3, seed=5)
        b = partition_iid(seqs, 3, seed=5)
        c = partition_iid(seqs, 3, seed=6)
        assert [s.tolist() for s in a] == [s.tolist() for s in b]
        assert [s.tolist() for s in a] != [s.tolist() for s in c]

    def test_fewer_sequences_than_clients(self):
        with pytest.raises(ArgumentError):
            partition_iid(self.seqs(2), 3, seed=0)
