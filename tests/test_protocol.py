import socket
import threading
import time

import numpy as np
import pytest

from deltafed.config import ExperimentConfig
from deltafed.errors import ConfigError, FormatError, ProtocolError
from deltafed.lora import attach
from deltafed.model import LmConfig, init_model
from deltafed.optim import OptimizerConfig
from deltafed.params import ParameterSet, Tensor
from deltafed.protocol import (
    SERVER_SENDER,
    ClientTask,
    LocalTrainer,
    TrafficLedger,
    answer_broadcast,
    check_client_ledger,
    run_client,
    run_server,
)
from deltafed.transport import TcpChannel, TcpListener, memory_pairs, tcp_connect
from deltafed.wire import (
    FLAG_FACTORS,
    HEADER_LEN,
    KIND_DELTA_UPDATE,
    KIND_FULL_MODEL_UPDATE,
    KIND_GLOBAL_BROADCAST,
    KIND_ROUND_ACK,
    KIND_SHUTDOWN,
    WireMessage,
    decode_message,
    encode_message,
    serialize_params,
    serialized_size,
)


def adapted_model(seed=1, vocab=6, dim=4, rank=2):
    base = init_model(LmConfig(vocab_size=vocab, embed_dim=dim, context=8), seed=seed)
    return attach(base, ["embed.W", "rnn.U"], rank=rank, alpha=4.0, seed=seed)


def shards_for(model, k, n_seqs=6, seed=0):
    rng = np.random.default_rng(seed)
    v = model.cfg.vocab_size
    return [
        [[int(x) for x in rng.integers(0, v, size=6)] for _ in range(n_seqs)]
        for _ in range(k)
    ]


def tasks_for(model, shards, steps=2, lr=0.05, rounds=3, seed=0, batch_size=3):
    opt = OptimizerConfig(
        lr=lr, total_steps=max(1, rounds * steps), warmup_ratio=0.0
    )
    return [
        ClientTask(
            client_id=i,
            shard=s,
            opt_cfg=opt,
            batch_size=batch_size,
            steps_per_round=steps,
            seed=seed,
        )
        for i, s in enumerate(shards)
    ]


def federate(model, tasks, cfg, server_chs, client_chs, sample_counts=None):
    """Server on this thread, one worker thread per client."""
    results: dict = {}

    def work(task, ch):
        try:
            results[task.client_id] = run_client(ch, model, LocalTrainer(task), cfg)
        except BaseException as e:  # surfaced after join
            results[task.client_id] = e

    threads = [
        threading.Thread(target=work, args=(t, ch), daemon=True)
        for t, ch in zip(tasks, client_chs)
    ]
    for th in threads:
        th.start()
    final, ledger = run_server(model, server_chs, cfg, sample_counts)
    for th in threads:
        th.join(timeout=30)
    for cid, res in results.items():
        if isinstance(res, BaseException):
            raise res
    return final, ledger, results


def scripted_join(ch, cid):
    ch.send(encode_message(WireMessage(KIND_ROUND_ACK, 0, cid)))


def scripted_delta(ch, cid, rnd, delta_params):
    ch.send(
        encode_message(
            WireMessage(
                KIND_DELTA_UPDATE,
                rnd,
                cid,
                FLAG_FACTORS,
                serialize_params(delta_params),
            )
        )
    )


def delta_like(params, value):
    """Constant dyadic-valued delta over the trainable entries."""
    return ParameterSet(
        [
            (n, Tensor.from_array(np.full(params.tensor(n).shape, value)), True)
            for n in params.trainable_names()
        ]
    )


class TestScriptedServer:
    def test_t0_runs_join_and_shutdown_handshake(self):
        model = adapted_model()
        server_chs, client_chs = memory_pairs(2, timeout=1.0)
        for cid in range(2):
            scripted_join(client_chs[cid], cid)
        final, ledger = run_server(model, server_chs, ExperimentConfig(rounds=0))
        assert final is model
        assert ledger.rounds() == [0, 1]
        assert ledger.total_bytes() == 4 * HEADER_LEN  # two joins, two shutdowns
        for ch in client_chs:
            msg = decode_message(ch.recv())
            assert (msg.kind, msg.round) == (KIND_SHUTDOWN, 1)

    def test_zero_delta_keeps_global(self):
        model = adapted_model()
        server_chs, client_chs = memory_pairs(1, timeout=1.0)
        scripted_join(client_chs[0], 0)
        scripted_delta(client_chs[0], 0, 1, delta_like(model.params, 0.0))
        final, ledger = run_server(model, server_chs, ExperimentConfig(rounds=1))
        for name in model.params.names():
            assert np.array_equal(
                final.params.array(name), model.params.array(name)
            )
        assert ledger.rounds() == [0, 1, 2]

    def test_known_deltas_telescope(self):
        model = adapted_model()
        server_chs, client_chs = memory_pairs(2, timeout=1.0)
        per_round = [(0.5, 0.25), (1.0, 0.5), (-0.25, 0.75)]
        for cid in range(2):
            scripted_join(client_chs[cid], cid)
            for t, pair in enumerate(per_round, start=1):
                scripted_delta(
                    client_chs[cid], cid, t, delta_like(model.params, pair[cid])
                )
        final, _ = run_server(model, server_chs, ExperimentConfig(rounds=3))
        for name in model.params.trainable_names():
            expected = model.params.array(name).copy()
            for a, b in per_round:
                expected = expected + (a + b) / 2.0
            assert np.allclose(final.params.array(name), expected, atol=1e-12)
        for name in model.params.names():
            if not model.params.trainable(name):
                assert np.shares_memory(final.params.array(name), model.params.array(name))
                assert final.params.array(name).tobytes() == model.params.array(name).tobytes()

    def test_wrong_round_rejected_with_partial_ledger(self):
        model = adapted_model()
        server_chs, client_chs = memory_pairs(1, timeout=1.0)
        scripted_join(client_chs[0], 0)
        scripted_delta(client_chs[0], 0, 2, delta_like(model.params, 0.0))
        with pytest.raises(ProtocolError) as exc:
            run_server(model, server_chs, ExperimentConfig(rounds=1))
        assert "round 2" in str(exc.value) and "expected 1" in str(exc.value)
        assert exc.value.ledger is not None
        assert exc.value.ledger.downlink_bytes(1) > 0

    def test_sender_mismatch_rejected(self):
        model = adapted_model()
        server_chs, client_chs = memory_pairs(1, timeout=1.0)
        scripted_join(client_chs[0], 0)
        scripted_delta(client_chs[0], 3, 1, delta_like(model.params, 0.0))
        with pytest.raises(ProtocolError, match="sender"):
            run_server(model, server_chs, ExperimentConfig(rounds=1))

    def test_wrong_kind_rejected(self):
        model = adapted_model()
        server_chs, client_chs = memory_pairs(1, timeout=1.0)
        scripted_join(client_chs[0], 0)
        scripted_delta(client_chs[0], 0, 1, delta_like(model.params, 0.0))
        with pytest.raises(ProtocolError, match="kind"):
            run_server(
                model, server_chs, ExperimentConfig(rounds=1, aggregation="fedavg")
            )

    def test_fedavg_rejects_full_model_unlike_global(self):
        model = adapted_model()
        reshaped = ParameterSet([("rnn.U", Tensor.from_array(np.zeros((2, 2))), False)])
        for bad, entry in (
            (model.params.drop(["rnn.b"]), "rnn.b"),
            (model.params.drop(["rnn.U"]).merged_with(reshaped), "rnn.U"),
        ):
            server_chs, client_chs = memory_pairs(1, timeout=1.0)
            scripted_join(client_chs[0], 0)
            client_chs[0].send(
                encode_message(
                    WireMessage(KIND_FULL_MODEL_UPDATE, 1, 0, 0, serialize_params(bad))
                )
            )
            with pytest.raises(ProtocolError, match=f"client 0 .*'{entry}'") as exc:
                run_server(
                    model, server_chs, ExperimentConfig(rounds=1, aggregation="fedavg")
                )
            assert exc.value.ledger is not None

    def test_nonfinite_update_names_client_round_and_entry(self):
        model = adapted_model()
        server_chs, client_chs = memory_pairs(1, timeout=1.0)
        scripted_join(client_chs[0], 0)
        delta = delta_like(model.params, 0.0)
        payload = bytearray(serialize_params(delta))
        payload[-4:] = np.float32(np.nan).tobytes()  # the last entry's last value
        client_chs[0].send(
            encode_message(WireMessage(KIND_DELTA_UPDATE, 1, 0, FLAG_FACTORS, bytes(payload)))
        )
        last = max(delta.names())
        with pytest.raises(FormatError) as exc:
            run_server(model, server_chs, ExperimentConfig(rounds=1))
        assert str(exc.value) == (
            f"update from client 0 in round 1: entry {last!r}: non-finite f32 values"
        )

    def test_dense_delta_must_cover_every_adapted_target(self):
        model = adapted_model()
        server_chs, client_chs = memory_pairs(1, timeout=1.0)
        scripted_join(client_chs[0], 0)
        shape = model.params.tensor("embed.W").shape
        partial = ParameterSet([("embed.W", Tensor.from_array(np.ones(shape)), True)])
        client_chs[0].send(
            encode_message(WireMessage(KIND_DELTA_UPDATE, 1, 0, 0, serialize_params(partial)))
        )
        with pytest.raises(
            ProtocolError,
            match=r"^delta from client 0 in round 1 does not cover the adapted targets: "
            r"missing \['rnn.U'\], extra \[\]$",
        ) as exc:
            run_server(model, server_chs, ExperimentConfig(rounds=1, delta_form="dense"))
        assert exc.value.ledger is not None
        assert exc.value.ledger.uplink_bytes(1) > 0  # the update was booked

    def test_factor_delta_must_cover_the_trainable_set(self):
        model = adapted_model()
        server_chs, client_chs = memory_pairs(1, timeout=1.0)
        scripted_join(client_chs[0], 0)
        stray = ParameterSet([("q", Tensor.from_array(np.zeros(2)), True)])
        scripted_delta(client_chs[0], 0, 1, stray)
        with pytest.raises(ProtocolError) as exc:
            run_server(model, server_chs, ExperimentConfig(rounds=1))
        missing = sorted(model.params.trainable_names())
        assert str(exc.value) == (
            f"delta from client 0 in round 1 does not cover the trainable set: "
            f"missing {missing}, extra ['q']"
        )
        ledger = exc.value.ledger
        assert ledger is not None
        assert ledger.downlink_bytes(1) > 0 and ledger.uplink_bytes(1) > 0

    def test_duplicate_join_rejected(self):
        model = adapted_model()
        server_chs, client_chs = memory_pairs(2, timeout=1.0)
        scripted_join(client_chs[0], 0)
        scripted_join(client_chs[1], 0)
        with pytest.raises(ProtocolError, match="duplicate"):
            run_server(model, server_chs, ExperimentConfig(rounds=1))

    def test_silent_client_aborts_with_ledger(self):
        model = adapted_model()
        server_chs, client_chs = memory_pairs(1, timeout=0.05)
        scripted_join(client_chs[0], 0)
        with pytest.raises(ProtocolError) as exc:
            run_server(model, server_chs, ExperimentConfig(rounds=1))
        assert exc.value.ledger is not None
        assert exc.value.ledger.downlink_bytes(1) > 0  # broadcast went out
        assert exc.value.ledger.uplink_bytes(1) == 0


class TestEndToEndMemory:
    def test_gradualdiff_round_trip_and_byte_accounting(self):
        model = adapted_model()
        cfg = ExperimentConfig(rounds=3)
        shards = shards_for(model, 2)
        tasks = tasks_for(model, shards, rounds=3)
        server_chs, client_chs = memory_pairs(2, timeout=10.0)
        final, ledger, results = federate(model, tasks, cfg, server_chs, client_chs)

        full_sz = serialized_size(model.params, "all")
        lora_sz = serialized_size(model.params, "trainable")
        assert ledger.downlink_bytes(1) == 2 * (HEADER_LEN + full_sz)
        for t in (2, 3):
            assert ledger.downlink_bytes(t) == 2 * (HEADER_LEN + lora_sz)
        for t in (1, 2, 3):
            assert ledger.uplink_bytes(t) == 2 * (HEADER_LEN + lora_sz)
        assert ledger.uplink_bytes(0) == 2 * HEADER_LEN  # joins
        assert ledger.downlink_bytes(4) == 2 * HEADER_LEN  # shutdowns

        for cid, res in results.items():
            assert len(res.losses) == 3
            assert all(np.isfinite(l) for l in res.losses)
            check_client_ledger(ledger, cid, res.ledger)
            assert sorted(res.ledger.byte_table()) == [0, 1, 2, 3, 4]

        for name in model.params.names():
            assert np.all(np.isfinite(final.params.array(name)))
            if not model.params.trainable(name):
                assert np.shares_memory(final.params.array(name), model.params.array(name))
                assert final.params.array(name).tobytes() == model.params.array(name).tobytes()

    def test_zero_steps_leaves_global_at_f32_start(self):
        model = adapted_model()
        cfg = ExperimentConfig(rounds=2)
        shards = shards_for(model, 2)
        tasks = tasks_for(model, shards, steps=0, rounds=2)
        server_chs, client_chs = memory_pairs(2, timeout=10.0)
        final, _, _ = federate(model, tasks, cfg, server_chs, client_chs)
        for name in model.params.names():
            assert np.array_equal(
                final.params.array(name), model.params.array(name)
            )

    def test_fedavg_uplink_strictly_larger(self):
        # large enough that 26-byte headers stay inside the 0.02 slack
        model = adapted_model(vocab=40, dim=32, rank=8)
        shards = shards_for(model, 2)
        uplinks = {}
        for agg in ("gradualdiff", "fedavg"):
            cfg = ExperimentConfig(rounds=2, aggregation=agg)
            tasks = tasks_for(model, shards, rounds=2)
            server_chs, client_chs = memory_pairs(2, timeout=10.0)
            _, ledger, _ = federate(model, tasks, cfg, server_chs, client_chs)
            uplinks[agg] = ledger.uplink_bytes(1)
        assert uplinks["fedavg"] > uplinks["gradualdiff"]
        ratio = serialized_size(model.params, "trainable") / serialized_size(
            model.params, "all"
        )
        measured = uplinks["gradualdiff"] / uplinks["fedavg"]
        assert abs(measured - ratio) < 0.02  # header slack only

    def test_quantized_uplink_shrinks(self):
        model = adapted_model(vocab=40, dim=32, rank=8)
        shards = shards_for(model, 2)
        uplinks = {}
        for q in (False, True):
            cfg = ExperimentConfig(rounds=1, quantize_payload=q)
            tasks = tasks_for(model, shards, rounds=1)
            server_chs, client_chs = memory_pairs(2, timeout=10.0)
            _, ledger, _ = federate(model, tasks, cfg, server_chs, client_chs)
            uplinks[q] = ledger.uplink_bytes(1)
        assert uplinks[True] * 5 < uplinks[False]

    def test_dense_form_resets_factors_and_moves_base(self):
        model = adapted_model()
        cfg = ExperimentConfig(rounds=2, delta_form="dense")
        shards = shards_for(model, 2)
        tasks = tasks_for(model, shards, rounds=2, steps=3, lr=0.1)
        server_chs, client_chs = memory_pairs(2, timeout=10.0)
        final, ledger, _ = federate(model, tasks, cfg, server_chs, client_chs)
        for target in ("embed.W", "rnn.U"):
            assert np.all(final.params.array(f"{target}.lora.B") == 0.0)
            assert not np.array_equal(
                final.params.array(target), model.params.array(target)
            )
        # dense broadcasts always carry the full set
        full_sz = serialized_size(model.params, "all")
        assert ledger.downlink_bytes(2) == 2 * (HEADER_LEN + full_sz)

    def test_sample_weighted_deltas(self):
        model = adapted_model()
        server_chs, client_chs = memory_pairs(2, timeout=1.0)
        for cid in range(2):
            scripted_join(client_chs[cid], cid)
        scripted_delta(client_chs[0], 0, 1, delta_like(model.params, 1.0))
        scripted_delta(client_chs[1], 1, 1, delta_like(model.params, 0.0))
        cfg = ExperimentConfig(rounds=1, delta_weighting="samples")
        final, _ = run_server(
            model, server_chs, cfg, sample_counts={0: 3, 1: 1}
        )
        name = model.params.trainable_names()[0]
        moved = final.params.array(name) - model.params.array(name)
        assert np.allclose(moved, 0.75, atol=1e-12)


class TestFactorBroadcast:
    """From round 2 a factor broadcast carries exactly the trainable entries."""

    def answer_round_2(self, model, params):
        msg = WireMessage(
            KIND_GLOBAL_BROADCAST, 2, SERVER_SENDER, FLAG_FACTORS, serialize_params(params)
        )
        trainer = LocalTrainer(tasks_for(model, shards_for(model, 1))[0])
        return answer_broadcast(msg, model, trainer, ExperimentConfig())

    def test_missing_factor_rejected(self):
        model = adapted_model()
        short = model.params.trainable_subset().drop(["rnn.U.lora.B"])
        with pytest.raises(
            ProtocolError, match=r"^round 2 broadcast lacks trainable entry 'rnn.U.lora.B'$"
        ):
            self.answer_round_2(model, short)

    def test_client_error_carries_its_ledger(self):
        model = adapted_model()
        server_chs, client_chs = memory_pairs(1, timeout=1.0)
        server = server_chs[0]
        full = serialize_params(model.params)
        short = serialize_params(model.params.trainable_subset().drop(["rnn.U.lora.B"]))
        for rnd, flags, payload in ((1, FLAG_FACTORS, full), (2, FLAG_FACTORS, short)):
            server.send(
                encode_message(WireMessage(KIND_GLOBAL_BROADCAST, rnd, SERVER_SENDER, flags, payload))
            )
        trainer = LocalTrainer(tasks_for(model, shards_for(model, 1))[0])
        with pytest.raises(ProtocolError, match=r"^round 2 broadcast lacks") as exc:
            run_client(client_chs[0], model, trainer, ExperimentConfig())
        ledger = exc.value.ledger
        assert ledger is not None
        assert ledger.uplink_bytes(0) == HEADER_LEN  # the join
        assert ledger.uplink_bytes(1) > 0  # round 1's update
        assert ledger.downlink_bytes(2) == HEADER_LEN + len(short)

    def test_frozen_entry_rejected(self):
        model = adapted_model()
        frozen = [n for n in model.params.names() if not model.params.trainable(n)]
        carried = model.params.drop(n for n in frozen if n != "rnn.U")
        with pytest.raises(
            ProtocolError, match=r"^round 2 broadcast carries non-trainable entry 'rnn.U'$"
        ):
            self.answer_round_2(model, carried)

    @staticmethod
    def client_error(model, payloads):
        """run_client against broadcasts of these payloads for rounds 1, 2, ...;
        -> the ProtocolError it raised."""
        server_chs, client_chs = memory_pairs(1, timeout=1.0)
        for rnd, payload in enumerate(payloads, start=1):
            server_chs[0].send(
                encode_message(
                    WireMessage(KIND_GLOBAL_BROADCAST, rnd, SERVER_SENDER, FLAG_FACTORS, payload)
                )
            )
        trainer = LocalTrainer(tasks_for(model, shards_for(model, 1))[0])
        with pytest.raises(ProtocolError) as exc:
            run_client(client_chs[0], model, trainer, ExperimentConfig())
        assert exc.value.ledger is not None
        assert exc.value.ledger.downlink_bytes(len(payloads)) == HEADER_LEN + len(payloads[-1])
        return exc.value

    @staticmethod
    def reshaped(params, name, shape):
        wrong = ParameterSet([(name, Tensor.from_array(np.zeros(shape)), params.trainable(name))])
        return params.drop([name]).merged_with(wrong)

    def test_misshapen_factor_names_round_entry_and_shapes(self):
        model = adapted_model()
        bad = self.reshaped(model.params.trainable_subset(), "rnn.U.lora.B", (3, 4))
        e = self.client_error(model, [serialize_params(model.params), serialize_params(bad)])
        assert str(e) == "round 2 broadcast entry 'rnn.U.lora.B' has shape (3, 4), the model's is (2, 4)"

    def test_misshapen_full_broadcast_names_round_entry_and_shapes(self):
        model = adapted_model()
        bad = self.reshaped(model.params, "rnn.U", (3, 4))
        e = self.client_error(model, [serialize_params(bad)])
        assert str(e) == "round 1 broadcast entry 'rnn.U' has shape (3, 4), the model's is (4, 4)"


class TestProtocolConfig:
    @pytest.mark.parametrize(
        "field, value",
        [("aggregation", "fedprox"), ("delta_form", "sparse"), ("delta_weighting", "mean")],
    )
    def test_unknown_value_rejected_at_construction(self, field, value):
        with pytest.raises(ConfigError, match=repr(value)):
            ExperimentConfig(rounds=1, **{field: value})


class TestMeasureRoundTraffic:
    def test_sums_and_unknown_round(self):
        ledger = TrafficLedger()
        ledger.add_down(1, 0, 100)
        ledger.add_down(1, 1, 100)
        ledger.add_up(1, 0, 40)
        ledger.add_up(1, 1, 44)
        ledger.set_wall_ms(1, 12.5)
        assert (ledger.uplink_bytes(1), ledger.downlink_bytes(1)) == (84, 200)
        assert ledger.wall_ms(1) == 12.5
        unknown = (ledger.uplink_bytes(9), ledger.downlink_bytes(9), ledger.wall_ms(9))
        assert unknown == (0, 0, 0.0)
        assert ledger.rounds() == [1]

    def test_round_sums_equal_grand_total(self):
        ledger = TrafficLedger()
        rng = np.random.default_rng(0)
        for rnd in range(4):
            for cid in range(3):
                ledger.add_down(rnd, cid, int(rng.integers(1, 500)))
                ledger.add_up(rnd, cid, int(rng.integers(1, 500)))
        total = sum(
            ledger.uplink_bytes(r) + ledger.downlink_bytes(r) for r in ledger.rounds()
        )
        assert total == ledger.total_bytes()


class TestMemoryTransport:
    def test_close_ends_peer_recv_at_once(self):
        server_chs, client_chs = memory_pairs(1, timeout=60.0)
        client_chs[0].send(b"last")
        client_chs[0].close()
        assert server_chs[0].recv() == b"last"  # queued messages come first
        start = time.monotonic()
        for _ in range(2):  # and every later recv ends too
            with pytest.raises(ProtocolError, match="closed"):
                server_chs[0].recv()
        assert time.monotonic() - start < 2.0


class TestTcpTransport:
    def test_channel_reassembles_split_frames(self):
        a, b = socket.socketpair()
        left, right = TcpChannel(a, timeout=5.0), TcpChannel(b, timeout=5.0)
        msg = encode_message(WireMessage(1, 2, 3, payload=b"x" * 100))
        a.sendall(msg[:10])
        a.sendall(msg[10:40])
        a.sendall(msg[40:])
        assert right.recv() == msg
        left.close()
        right.close()

    def test_eof_mid_message_raises(self):
        a, b = socket.socketpair()
        right = TcpChannel(b, timeout=5.0)
        msg = encode_message(WireMessage(1, 2, 3, payload=b"y" * 50))
        a.sendall(msg[:30])
        a.close()
        with pytest.raises(ProtocolError, match="closed"):
            right.recv()
        right.close()

    def test_oversized_declared_length_rejected_at_once(self):
        a, b = socket.socketpair()
        right = TcpChannel(b, timeout=60.0)
        header = bytearray(encode_message(WireMessage(1, 2, 3)))
        header[HEADER_LEN - 8 :] = (2**40).to_bytes(8, "little")
        a.sendall(bytes(header))
        start = time.monotonic()
        with pytest.raises(FormatError, match=str(2**40)):
            right.recv()
        assert time.monotonic() - start < 2.0
        a.close()
        right.close()

    def test_closed_listener_ends_accept_and_drops_accepted(self):
        listener = TcpListener()
        early = tcp_connect(listener.host, listener.port, timeout=60.0)
        closer = threading.Timer(0.2, listener.close)
        closer.start()
        start = time.monotonic()
        with pytest.raises(ProtocolError, match="listener closed after 1 of 2") as exc:
            listener.accept(2, timeout=60.0)
        # the error is kept, as the harness keeps it, and with it accept's
        # frame; the accepted socket must be closed, not merely dropped
        with pytest.raises(ProtocolError, match="closed"):
            early.recv()
        assert exc.value.__cause__ is not None
        assert time.monotonic() - start < 2.0
        closer.join()
        early.close()

    def test_taken_port_raises_protocol_error(self):
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen(1)
            port = holder.getsockname()[1]
            with pytest.raises(ProtocolError, match=f"^cannot listen on 127.0.0.1:{port}: "):
                TcpListener("127.0.0.1", port)

    def test_connect_to_closed_listener_fails_at_once(self):
        listener = TcpListener()
        listener.close()
        start = time.monotonic()
        with pytest.raises(ProtocolError, match="could not connect"):
            tcp_connect(listener.host, listener.port, timeout=60.0)
        assert time.monotonic() - start < 2.0

    def test_end_to_end_matches_memory_run(self):
        model = adapted_model()
        cfg = ExperimentConfig(rounds=2)
        shards = shards_for(model, 2)

        tasks = tasks_for(model, shards, rounds=2)
        server_chs, client_chs = memory_pairs(2, timeout=10.0)
        final_mem, ledger_mem, _ = federate(
            model, tasks, cfg, server_chs, client_chs
        )

        listener = TcpListener()
        client_chs_tcp = []
        accepted: list = []

        def connect_all():
            for _ in range(2):
                client_chs_tcp.append(tcp_connect(listener.host, listener.port))

        conn_thread = threading.Thread(target=connect_all, daemon=True)
        conn_thread.start()
        accepted = listener.accept(2, timeout=10.0)
        conn_thread.join(timeout=10)
        final_tcp, ledger_tcp, _ = federate(
            model, tasks, cfg, accepted, client_chs_tcp
        )
        listener.close()
        for ch in accepted + client_chs_tcp:
            ch.close()

        for name in model.params.names():
            assert (
                final_mem.params.tensor(name).data.tobytes()
                == final_tcp.params.tensor(name).data.tobytes()
            )
        assert ledger_mem.byte_table() == ledger_tcp.byte_table()
