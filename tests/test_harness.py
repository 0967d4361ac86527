import json
import math
import socket
import threading
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import deltafed.harness as harness
import deltafed.protocol as protocol
import deltafed.transport as transport_mod
import deltafed.workers as workers
from deltafed.cli import main as cli_main
from deltafed.config import ExperimentConfig, override, save_config
from deltafed.errors import ProtocolError
from deltafed.harness import bleu_of, compare_modes, run_experiment
from rounds_csv import parse_rounds_csv
from test_data_path import make_corpus
from deltafed.wire import KIND_DELTA_UPDATE, decode_message, serialize_params


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


def compare_kept(cfg, out_dir):
    """-> (compare.csv bytes, {mode: result}) of one `compare_modes` call."""
    results = {}

    def kept(mode_cfg, *args, **kw):
        results[mode_cfg.mode] = run_experiment(mode_cfg, *args, **kw)
        return results[mode_cfg.mode]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "run_experiment", kept)
        csv_path, _ = compare_modes(cfg, out_dir)
    return csv_path.read_bytes(), results


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

    The faults are injected in this process and pick their client by id, so
    these runs train in process; tests/test_workers.py has the pool's twins.
    """

    @pytest.fixture(autouse=True)
    def in_process(self, monkeypatch):
        monkeypatch.setattr(workers, "planned_workers", lambda clients: 0)

    def run_and_time(self, cfg, injected_at, error=RuntimeError):
        with pytest.raises(error) as exc:
            run_experiment(cfg, report=False)
        return exc.value, time.monotonic() - injected_at[0]

    def fail_training(self, cfg, monkeypatch, client, rnd):
        """Run cfg with client `client`'s training raising in round `rnd`;
        -> (the error, seconds from the fault to the raise)."""
        train = protocol.Client.train
        calls = Counter()
        injected_at = []

        def flaky(self):
            calls[self.id] += 1
            if self.id == client and calls[client] == rnd:
                injected_at.append(time.monotonic())
                raise RuntimeError("injected training fault")
            return train(self)

        monkeypatch.setattr(protocol.Client, "train", flaky)
        return self.run_and_time(cfg, injected_at)

    @pytest.mark.parametrize("transport", ["memory", "tcp"])
    def test_client_failure_mid_round(self, corpus_path, transport, monkeypatch):
        cfg = small_cfg(corpus_path, transport=transport)
        err, elapsed = self.fail_training(cfg, monkeypatch, client=1, rnd=2)
        assert str(err) == "client 1: round 2: injected training fault"
        assert elapsed < 2.0

    @pytest.mark.parametrize("transport", ["memory", "tcp"])
    def test_client_failure_names_its_round(self, corpus_path, transport, monkeypatch):
        cfg = small_cfg(corpus_path, transport=transport, rounds=4)
        err, elapsed = self.fail_training(cfg, monkeypatch, client=0, rnd=3)
        assert str(err) == "client 0: round 3: injected training fault"
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
        # client 0 connects, client 1 never does: the run must end at once,
        # with client 0's ends closed, not wait out either timeout
        connect = harness.tcp_connect
        opened = []
        injected_at = []

        def flaky(*args, **kw):
            if len(opened) == 1:  # clients connect in id order
                injected_at.append(time.monotonic())
                raise RuntimeError("injected connect fault")
            opened.append(connect(*args, **kw))
            return opened[-1]

        monkeypatch.setattr(harness, "tcp_connect", flaky)
        cfg = small_cfg(corpus_path, transport="tcp", clients=2)
        err, elapsed = self.run_and_time(cfg, injected_at)
        assert str(err) == "client 1: injected connect fault"
        assert elapsed < 2.0
        assert opened[0]._sock.fileno() == -1  # closed

    @pytest.mark.parametrize("transport", ["memory", "tcp"])
    def test_dropped_update_names_client_and_round(self, corpus_path, transport, monkeypatch):
        """A lost uplink is named by the server, which waits for it: at once
        on memory, within the channel timeout on TCP."""
        injected_at = []

        def dropping(send):
            def send_unless_dropped(self, data):
                msg = decode_message(data)
                if (msg.kind, msg.round, msg.sender_id) == (KIND_DELTA_UPDATE, 2, 1):
                    injected_at.append(time.monotonic())
                    return None
                return send(self, data)

            return send_unless_dropped

        for channel in (transport_mod.MemoryChannel, transport_mod.TcpChannel):
            monkeypatch.setattr(channel, "send", dropping(channel.send))
        monkeypatch.setattr(harness, "Hub", lambda: transport_mod.Hub(timeout=0.5))
        cfg = small_cfg(corpus_path, transport=transport)
        err, elapsed = self.run_and_time(cfg, injected_at, ProtocolError)
        assert str(err).startswith("server: no update from client 1 for round 2: ")
        assert err.ledger.uplink_bytes(2) > 0 and 1 not in err.ledger.byte_table()[2]["up"]
        assert elapsed < (1.0 if transport == "tcp" else 0.2)


class TestOneThread:
    """A federated run drives the server, its clients and their workers'
    jobs from the calling thread: no thread is started for a client."""

    @pytest.mark.parametrize("pooled", [True, False], ids=["pool", "in-process"])
    @pytest.mark.parametrize("transport", ["memory", "tcp"])
    def test_no_thread_per_client(self, corpus_path, transport, pooled, monkeypatch):
        counts = []

        def counted(method):
            def call(self, *args):
                counts.append(threading.active_count())
                return method(self, *args)

            return call

        if pooled:
            monkeypatch.setattr(workers, "planned_workers", lambda clients: min(clients, 2))
            client = workers.WorkerClient
        else:
            monkeypatch.setattr(workers, "planned_workers", lambda clients: 0)
            client = protocol.Client
        for name in ("receive", "update"):
            monkeypatch.setattr(client, name, counted(getattr(client, name)))
        cfg = small_cfg(corpus_path, transport=transport, clients=3)
        run_experiment(cfg, report=False)
        # a receive per broadcast and the shutdown, an update per broadcast
        assert counts == [1] * (cfg.clients * (2 * cfg.rounds + 1))

    def test_more_clients_than_the_listen_backlog(self, corpus_path, monkeypatch):
        # the listener's backlog is 16, and Linux queues one connection more
        monkeypatch.setattr(workers, "planned_workers", lambda clients: 0)
        cfg = small_cfg(corpus_path, transport="tcp", clients=20, rounds=1, batch_size=64)
        res = run_experiment(cfg, report=False)
        assert sorted(res.ledger.byte_table()[1]["up"]) == list(range(20))


class TestMemory:
    def test_peak_flat_in_rounds(self, tmp_path):
        """Federated keeps each round's perplexity, not its global model: a
        15-round run peaks less than one model's bytes above a 3-round run."""
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(make_corpus(1000, 1), encoding="ascii")
        cfg = ExperimentConfig(
            corpus_path=str(corpus), split=0.4, embed_dim=128, lora_rank=0, clients=2, seed=1
        )

        def peak(rounds):
            tracemalloc.start()
            try:
                run_experiment(override(cfg, rounds=rounds), report=False)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run_experiment(override(cfg, rounds=1), report=False)  # forks the pool, if any
        model_bytes = 8 * harness._setup(cfg).model.params.layout.trainable_size
        assert peak(15) - peak(3) < model_bytes


class _Skewed(protocol.TrafficLedger):
    """Books one byte too many in round 2; module-level, so a worker's
    client can send it home."""

    def add_up(self, rnd, client_id, nbytes):
        super().add_up(rnd, client_id, nbytes + (rnd == 2))


class _SkewedClient(protocol.Client):
    """Client 1 keeps a skewed ledger."""

    def __init__(self, *args):
        super().__init__(*args)
        if self.id == 1:
            self.ledger = _Skewed()


class TestClientLedgers:
    @pytest.mark.parametrize("pooled", [True, False], ids=["pool", "in-process"])
    def test_client_ledger_mismatch_named(self, corpus_path, pooled, monkeypatch):
        workers.shutdown()  # a pool forked from here on plays the skewed client
        monkeypatch.setattr(workers, "Client", _SkewedClient)
        monkeypatch.setattr(workers, "planned_workers", lambda clients: min(clients, 2) * pooled)
        try:
            with pytest.raises(ProtocolError) as exc:
                run_experiment(small_cfg(corpus_path), report=False)
        finally:
            workers.shutdown()
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

    @pytest.mark.parametrize("mode", ["central", "local"])
    def test_run_mode_and_out_overrides(self, tmp_path, corpus_path, mode):
        path = self.write_cfg(tmp_path, corpus_path)
        code = cli_main(
            ["run", "--config", str(path), "--mode", mode, "--out", str(tmp_path / "alt")]
        )
        assert code == 0
        rows = parse_rounds_csv((tmp_path / "alt" / "rounds.csv").read_text())
        assert rows and all(r.mode == mode for r in rows)
        summary = json.loads((tmp_path / "alt" / "summary.json").read_text())
        assert "bleu" in summary
        cfg = summary["config"]
        if mode == "local":
            curves = summary["clients"]
            assert sorted(curves) == [str(i) for i in range(cfg["clients"])]
            for curve in curves.values():
                assert len(curve["train_loss"]) == len(curve["perplexity"]) == cfg["rounds"]
        else:
            assert "clients" not in summary

    def test_compare_writes_both_files(self, tmp_path, corpus_path):
        path = self.write_cfg(tmp_path, corpus_path)
        assert cli_main(["compare", "--config", str(path)]) == 0
        assert (tmp_path / "runs" / "compare.csv").exists()
        assert (tmp_path / "runs" / "compare_summary.json").exists()

    def test_taken_tcp_port_is_one_protocol_line(self, tmp_path, corpus_path, capsys):
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen(1)
            port = holder.getsockname()[1]
            path = self.write_cfg(
                tmp_path, corpus_path, transport="tcp", tcp_port=port, rounds=1, clients=2
            )
            assert cli_main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"protocol: cannot listen on 127.0.0.1:{port}: ")
        assert err.count("\n") == 1

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
