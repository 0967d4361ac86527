import json
import math
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import deltafed.harness as harness
import deltafed.protocol as protocol
import deltafed.workers as workers
from deltafed.cli import main as cli_main
from deltafed.config import ExperimentConfig, override, save_config
from deltafed.errors import ProtocolError
from deltafed.harness import bleu_of, compare_modes, run_experiment
from deltafed.metrics import parse_rounds_csv
from deltafed.wire import serialize_params


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    # a slice of the bundled corpus keeps these runs under a second each
    full = ExperimentConfig().resolved_corpus_path().read_bytes()
    p = tmp_path_factory.mktemp("corpus") / "slice.txt"
    p.write_bytes(full[:6000])
    return p


def small_cfg(corpus_path, **kw):
    base = dict(
        corpus_path=str(corpus_path),
        rounds=3,
        clients=3,
        context=8,
        embed_dim=8,
        lr=0.01,
        batch_size=8,
        lora_rank=2,
        lora_dropout=0.0,
        seed=1,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def params_bytes(model):
    return {n: model.params.array(n).tobytes() for n in model.params.names()}


class TestModes:
    def test_federated_records_and_bytes(self, corpus_path, tmp_path):
        cfg = small_cfg(corpus_path, output_dir=str(tmp_path / "out"))
        res = run_experiment(cfg)
        assert [r.round for r in res.records] == [1, 2, 3]
        assert all(r.mode == "federated" for r in res.records)
        # round 1 ships the full model, later rounds only the factors
        assert res.records[0].downlink_bytes > res.records[1].downlink_bytes
        assert res.records[1].downlink_bytes == res.records[2].downlink_bytes
        assert res.records[1].downlink_bytes == res.records[1].uplink_bytes
        assert res.csv_path.exists() and res.json_path.exists()
        rows = parse_rounds_csv(res.csv_path.read_text())
        assert len(rows) == 3

    def test_uplink_is_k_times_factor_payload(self, corpus_path):
        cfg = small_cfg(corpus_path)
        res = run_experiment(cfg, report=False)
        payload = len(serialize_params(res.model.params, "trainable"))
        per_round = cfg.clients * (26 + payload)
        assert all(r.uplink_bytes == per_round for r in res.records)

    def test_central_and_local_have_no_traffic(self, corpus_path):
        for mode in ("central", "local"):
            res = run_experiment(
                override(small_cfg(corpus_path), mode=mode), report=False
            )
            assert all(r.uplink_bytes == 0 and r.downlink_bytes == 0 for r in res.records)

    def test_local_returns_client_models(self, corpus_path):
        cfg = override(small_cfg(corpus_path), mode="local")
        res = run_experiment(cfg, report=False)
        assert res.model is None
        assert len(res.client_models) == cfg.clients
        curves = res.extras["clients"]
        assert set(curves) == {"0", "1", "2"}
        assert len(curves["0"]["train_loss"]) == cfg.rounds

    def test_local_average_is_mean_of_curves(self, corpus_path):
        res = run_experiment(
            override(small_cfg(corpus_path), mode="local"), report=False
        )
        curves = res.extras["clients"]
        for t, rec in enumerate(res.records):
            mean = np.mean([curves[c]["train_loss"][t] for c in curves])
            assert rec.train_loss == pytest.approx(mean, rel=1e-12)

    def test_zero_rounds_eval_only(self, corpus_path):
        for mode in ("federated", "central", "local"):
            res = run_experiment(
                override(small_cfg(corpus_path), rounds=0, mode=mode), report=False
            )
            (rec,) = res.records
            assert rec.round == 0
            assert math.isnan(rec.train_loss)
            assert rec.perplexity > 1.0
            assert rec.uplink_bytes == 0 and rec.downlink_bytes == 0

    def test_loss_improves_over_rounds(self, corpus_path):
        res = run_experiment(small_cfg(corpus_path), report=False)
        assert res.records[-1].train_loss < res.records[0].train_loss
        assert res.records[-1].perplexity < res.records[0].perplexity


class TestEquivalence:
    def variants(self):
        yield {}
        yield {"quantize_payload": True}
        yield {"delta_form": "dense"}
        yield {"aggregation": "fedavg"}
        yield {"aggregation": "fedavg", "quantize_payload": True}
        yield {"aggregation": "fedavg", "delta_form": "dense"}

    def test_k1_federated_matches_central_bitwise(self, corpus_path):
        def curve(res):
            return [(r.train_loss, r.perplexity) for r in res.records]

        for kw in self.variants():
            cfg = small_cfg(corpus_path, clients=1, **kw)
            fed = run_experiment(cfg, report=False)
            cen = run_experiment(override(cfg, mode="central"), report=False)
            loc = run_experiment(override(cfg, mode="local"), report=False)
            assert params_bytes(fed.model) == params_bytes(cen.model), kw
            assert params_bytes(loc.client_models[0]) == params_bytes(cen.model), kw
            assert curve(fed) == curve(cen) == curve(loc), kw

            # at batch size 1 the summed K=3 budget is the K=1 budget
            cfg = small_cfg(corpus_path, clients=1, batch_size=1, rounds=2, **kw)
            fed = run_experiment(cfg, report=False)
            cen = run_experiment(override(cfg, mode="central", clients=3), report=False)
            assert params_bytes(fed.model) == params_bytes(cen.model), kw

    def test_seed_repeat_is_bitwise(self, corpus_path):
        def timeless(recs):
            return [(r.round, r.train_loss, r.perplexity, r.uplink_bytes, r.downlink_bytes) for r in recs]

        a = run_experiment(small_cfg(corpus_path), report=False)
        b = run_experiment(small_cfg(corpus_path), report=False)
        assert params_bytes(a.model) == params_bytes(b.model)
        assert timeless(a.records) == timeless(b.records)  # wall_ms is real time
        assert a.ledger.byte_table() == b.ledger.byte_table()

    def test_memory_and_tcp_agree(self, corpus_path):
        mem = run_experiment(small_cfg(corpus_path), report=False)
        tcp = run_experiment(
            small_cfg(corpus_path, transport="tcp"), report=False
        )
        assert params_bytes(mem.model) == params_bytes(tcp.model)
        assert mem.ledger.byte_table() == tcp.ledger.byte_table()


class TestFailFast:
    """An injected fault surfaces at once as itself, not as a peer timeout.

    The faults are injected in this process and keyed on thread names, so
    these runs train in process; tests/test_workers.py has the pool's twins.
    """

    @pytest.fixture(autouse=True)
    def in_process(self, monkeypatch):
        monkeypatch.setattr(workers, "planned_workers", lambda clients: 0)

    def run_and_time(self, cfg, injected_at):
        with pytest.raises(RuntimeError) as exc:
            run_experiment(cfg, report=False)
        return exc.value, time.monotonic() - injected_at[0]

    @pytest.mark.parametrize("transport", ["memory", "tcp"])
    def test_client_failure_mid_round(self, corpus_path, transport, monkeypatch):
        train = protocol.local_train_round
        calls = {}
        injected_at = []

        def flaky(*args, **kw):
            name = threading.current_thread().name
            calls[name] = calls.get(name, 0) + 1
            if name == "client-1" and calls[name] == 2:
                injected_at.append(time.monotonic())
                raise RuntimeError("injected training fault")
            return train(*args, **kw)

        monkeypatch.setattr(protocol, "local_train_round", flaky)
        cfg = small_cfg(corpus_path, transport=transport)
        err, elapsed = self.run_and_time(cfg, injected_at)
        assert str(err) == "client 1: injected training fault"
        assert elapsed < 2.0

    @pytest.mark.parametrize("transport", ["memory", "tcp"])
    def test_server_failure_in_fold(self, corpus_path, transport, monkeypatch):
        fold = protocol.fold_updates
        injected_at = []

        def flaky(model, rnd, *args, **kw):
            if rnd == 2:
                injected_at.append(time.monotonic())
                raise RuntimeError("injected fold fault")
            return fold(model, rnd, *args, **kw)

        monkeypatch.setattr(protocol, "fold_updates", flaky)
        cfg = small_cfg(corpus_path, transport=transport)
        err, elapsed = self.run_and_time(cfg, injected_at)
        assert str(err) == "server: injected fold fault"
        assert elapsed < 2.0

    def test_client_failure_before_tcp_connect(self, corpus_path, monkeypatch):
        # client 0 connects, client 1 never does: the server must leave
        # accept and drop client 0 at once, not wait out either timeout
        connect = harness.tcp_connect
        connected = threading.Event()
        injected_at = []

        def flaky(*args, **kw):
            if threading.current_thread().name != "client-1":
                channel = connect(*args, **kw)
                connected.set()
                return channel
            connected.wait(timeout=5.0)
            injected_at.append(time.monotonic())
            raise RuntimeError("injected connect fault")

        monkeypatch.setattr(harness, "tcp_connect", flaky)
        cfg = small_cfg(corpus_path, transport="tcp", clients=2)
        err, elapsed = self.run_and_time(cfg, injected_at)
        assert str(err) == "client 1: injected connect fault"
        assert elapsed < 2.0


class TestClientLedgers:
    def test_client_ledger_mismatch_named(self, corpus_path, monkeypatch):
        class Skewed(protocol.TrafficLedger):
            """Client 1's own ledger books one byte too many in round 2."""

            def add_up(self, rnd, client_id, nbytes):
                if threading.current_thread().name == "client-1" and rnd == 2:
                    nbytes += 1
                super().add_up(rnd, client_id, nbytes)

        monkeypatch.setattr(protocol, "TrafficLedger", Skewed)
        with pytest.raises(ProtocolError) as exc:
            run_experiment(small_cfg(corpus_path), report=False)
        assert str(exc.value).startswith("client 1's ledger holds ")
        assert " uplink bytes in round 2, the server's " in str(exc.value)


class TestCompare:
    def test_compare_shape_and_determinism(self, corpus_path, tmp_path):
        cfg = small_cfg(corpus_path)
        csv1, json1 = compare_modes(cfg, tmp_path / "a")
        csv2, _ = compare_modes(cfg, tmp_path / "b")
        lines = csv1.read_text().splitlines()
        assert len(lines) == 1 + 3 * cfg.rounds
        assert lines[0] == "round,mode,train_loss,perplexity,uplink_bytes,downlink_bytes"
        modes = [ln.split(",")[1] for ln in lines[1:]]
        assert modes == ["federated"] * 3 + ["central"] * 3 + ["local"] * 3
        assert csv1.read_bytes() == csv2.read_bytes()
        summary = json.loads(json1.read_text())
        assert set(summary["modes"]) == {"federated", "central", "local"}
        fed = summary["modes"]["federated"]
        assert fed["total_uplink_bytes"] > 0
        assert summary["modes"]["central"]["total_uplink_bytes"] == 0
        assert "bleu" in fed

    def test_summary_json_totals(self, corpus_path, tmp_path):
        cfg = small_cfg(corpus_path, output_dir=str(tmp_path / "out"))
        res = run_experiment(cfg)
        summary = json.loads(res.json_path.read_text())
        fed = summary["modes"]["federated"]
        assert fed["total_uplink_bytes"] == sum(r.uplink_bytes for r in res.records)
        assert summary["config"]["rounds"] == cfg.rounds
        assert summary["overhead_bytes"]["join_uplink"] == cfg.clients * 26
        assert summary["overhead_bytes"]["shutdown_downlink"] == cfg.clients * 26


class TestBleuHelper:
    def test_perfect_continuation_scores_one(self, corpus_path):
        # an oracle model is out of reach; instead check bleu_of's bounds
        cfg = small_cfg(corpus_path)
        res = run_experiment(cfg, report=False)
        score = res.extras["bleu"]
        assert 0.0 <= score <= 1.0


class TestCli:
    def write_cfg(self, tmp_path, corpus_path, **kw):
        cfg = small_cfg(corpus_path, output_dir=str(tmp_path / "runs"), **kw)
        return save_config(cfg, tmp_path / "exp.cfg")

    def test_run_success(self, tmp_path, corpus_path, capsys):
        path = self.write_cfg(tmp_path, corpus_path)
        assert cli_main(["run", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "rounds.csv" in out and "federated" in out
        assert (tmp_path / "runs" / "rounds.csv").exists()

    def test_run_mode_and_out_overrides(self, tmp_path, corpus_path):
        path = self.write_cfg(tmp_path, corpus_path)
        code = cli_main(
            ["run", "--config", str(path), "--mode", "central", "--out", str(tmp_path / "alt")]
        )
        assert code == 0
        rows = parse_rounds_csv((tmp_path / "alt" / "rounds.csv").read_text())
        assert all(r.mode == "central" for r in rows)

    def test_compare_writes_both_files(self, tmp_path, corpus_path):
        path = self.write_cfg(tmp_path, corpus_path)
        assert cli_main(["compare", "--config", str(path)]) == 0
        assert (tmp_path / "runs" / "compare.csv").exists()
        assert (tmp_path / "runs" / "compare_summary.json").exists()

    def test_missing_config_is_categorized(self, tmp_path, capsys):
        code = cli_main(["run", "--config", str(tmp_path / "nope.cfg")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config:")

    def test_bad_key_is_categorized(self, tmp_path, capsys):
        p = tmp_path / "exp.cfg"
        p.write_text("learning_rate=0.1\n")
        assert cli_main(["run", "--config", str(p)]) == 1
        assert "config: " in capsys.readouterr().err
