import dataclasses
import socket
import time
from collections import Counter

import numpy as np
import pytest

from deltafed import protocol
from deltafed.config import ExperimentConfig, override
from deltafed.errors import ConfigError, FormatError, ProtocolError
from deltafed.lora import attach
from deltafed.model import LmConfig, init_model
from deltafed.optim import OptimizerConfig
from deltafed.params import ParameterSet
from deltafed.protocol import (
    SERVER_SENDER,
    Client,
    ClientTask,
    TrafficLedger,
    check_client_ledger,
    run_server,
)
from deltafed.transport import Hub, TcpChannel, TcpListener, memory_pairs, tcp_connect
from deltafed.wire import (
    HEADER_LEN,
    KIND_DELTA_UPDATE,
    KIND_FULL_MODEL_UPDATE,
    KIND_GLOBAL_BROADCAST,
    KIND_ROUND_ACK,
    KIND_SHUTDOWN,
    WireMessage,
    decode_message,
    deserialize_params,
    encode_message,
    serialize_params,
    serialized_size,
)
from oracles import drop, merged_with, replace_values


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
    """The server and one in-process client per task, all on this thread."""
    clients = [Client(model, task, cfg) for task in tasks]
    final, ledger = run_server(
        model, server_chs, cfg, sample_counts, clients=list(zip(client_chs, clients))
    )
    return final, ledger, {client.id: client for client in clients}


def scripted_join(ch, cid):
    ch.send(encode_message(WireMessage(KIND_ROUND_ACK, 0, cid)))


def scripted_delta(ch, cid, rnd, delta_params):
    ch.send(
        encode_message(
            WireMessage(
                KIND_DELTA_UPDATE,
                rnd,
                cid,
                serialize_params(delta_params),
            )
        )
    )


def delta_like(params, value):
    """Constant dyadic-valued delta over the trainable entries."""
    return ParameterSet(
        [
            (n, np.full(params.array(n).shape, value), True)
            for n in params.trainable_names()
        ]
    )


# policy -> (its config, what its updates are called and cover in errors,
# the entry its misfit cases drop and reshape, and that entry's wrong shape)
POLICIES = {
    "factors": (
        ExperimentConfig(rounds=1), "delta", "trainable set", "rnn.U.lora.A", (4, 3)
    ),
    "dense": (
        ExperimentConfig(rounds=1, delta_form="dense"), "delta", "adapted targets", "rnn.U", (3, 4)
    ),
    "fedavg": (
        ExperimentConfig(rounds=1, aggregation="fedavg"), "full model", "global model", "rnn.U", (2, 2)
    ),
}


def fitting_update(model, policy):
    """(kind, params) of a round-1 update with the policy's layout."""
    p = model.params
    if policy == "factors":
        return KIND_DELTA_UPDATE, delta_like(p, 0.0)
    if policy == "dense":
        targets = ("embed.W", "rnn.U")
        return KIND_DELTA_UPDATE, ParameterSet(
            [(t, np.zeros(p.array(t).shape), True) for t in targets]
        )
    return KIND_FULL_MODEL_UPDATE, p


class TestScriptedServer:
    def test_t0_runs_join_and_shutdown_handshake(self):
        model = adapted_model()
        server_chs, client_chs = memory_pairs(2)
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
        server_chs, client_chs = memory_pairs(1)
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
        server_chs, client_chs = memory_pairs(2)
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
        server_chs, client_chs = memory_pairs(1)
        scripted_join(client_chs[0], 0)
        scripted_delta(client_chs[0], 0, 2, delta_like(model.params, 0.0))
        with pytest.raises(ProtocolError) as exc:
            run_server(model, server_chs, ExperimentConfig(rounds=1))
        assert "round 2" in str(exc.value) and "expected 1" in str(exc.value)
        assert exc.value.ledger is not None
        assert exc.value.ledger.downlink_bytes(1) > 0

    def test_sender_mismatch_rejected(self):
        model = adapted_model()
        server_chs, client_chs = memory_pairs(1)
        scripted_join(client_chs[0], 0)
        scripted_delta(client_chs[0], 3, 1, delta_like(model.params, 0.0))
        with pytest.raises(ProtocolError, match="sender"):
            run_server(model, server_chs, ExperimentConfig(rounds=1))

    def test_wrong_kind_rejected(self):
        model = adapted_model()
        server_chs, client_chs = memory_pairs(1)
        scripted_join(client_chs[0], 0)
        scripted_delta(client_chs[0], 0, 1, delta_like(model.params, 0.0))
        with pytest.raises(ProtocolError, match="kind"):
            run_server(
                model, server_chs, ExperimentConfig(rounds=1, aggregation="fedavg")
            )

    def test_nonfinite_update_names_client_round_and_entry(self):
        model = adapted_model()
        server_chs, client_chs = memory_pairs(1)
        scripted_join(client_chs[0], 0)
        delta = delta_like(model.params, 0.0)
        payload = bytearray(serialize_params(delta))
        payload[-4:] = np.float32(np.nan).tobytes()  # the last entry's last value
        client_chs[0].send(
            encode_message(WireMessage(KIND_DELTA_UPDATE, 1, 0, bytes(payload)))
        )
        last = max(delta.names())
        with pytest.raises(FormatError) as exc:
            run_server(model, server_chs, ExperimentConfig(rounds=1))
        assert str(exc.value) == (
            f"update from client 0 in round 1: entry {last!r}: non-finite f32 values"
        )

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("misfit", ["missing", "extra", "misshapen"])
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_misfit_update_names_client_round_and_entry(self, policy, misfit, k):
        cfg, who, covers, entry, shape = POLICIES[policy]
        model = adapted_model()
        kind, fits = fitting_update(model, policy)
        if misfit == "missing":
            bad = drop(fits, [entry])
            why = f" does not cover the {covers}: missing [{entry!r}], extra []"
        elif misfit == "extra":
            bad = merged_with(fits, ParameterSet([("q", np.zeros(2), True)]))
            why = f" does not cover the {covers}: missing [], extra ['q']"
        else:
            wrong = ParameterSet([(entry, np.zeros(shape), True)])
            bad = merged_with(drop(fits, [entry]), wrong)
            why = f" has entry {entry!r} of shape {shape}, expected {fits.array(entry).shape}"
        server_chs, client_chs = memory_pairs(k)
        last = k - 1
        for cid in range(k):
            scripted_join(client_chs[cid], cid)
            params = bad if cid == last else fits
            client_chs[cid].send(
                encode_message(WireMessage(kind, 1, cid, serialize_params(params)))
            )
        with pytest.raises(ProtocolError) as exc:
            run_server(model, server_chs, cfg)
        assert str(exc.value) == f"{who} from client {last} in round 1{why}"
        ledger = exc.value.ledger
        assert ledger is not None
        assert ledger.byte_table()[1]["up"][last] > 0  # the update was booked

    def test_empty_rejected(self):
        with pytest.raises(ProtocolError, match="^a federation needs at least one client channel$"):
            run_server(adapted_model(), [], ExperimentConfig(rounds=1))

    def test_duplicate_join_rejected(self):
        model = adapted_model()
        server_chs, client_chs = memory_pairs(2)
        scripted_join(client_chs[0], 0)
        scripted_join(client_chs[1], 0)
        with pytest.raises(ProtocolError, match="duplicate"):
            run_server(model, server_chs, ExperimentConfig(rounds=1))

    def test_silent_client_aborts_with_ledger(self):
        model = adapted_model()
        server_chs, client_chs = memory_pairs(1)
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
        server_chs, client_chs = memory_pairs(2)
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
        server_chs, client_chs = memory_pairs(2)
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
            server_chs, client_chs = memory_pairs(2)
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
            server_chs, client_chs = memory_pairs(2)
            _, ledger, _ = federate(model, tasks, cfg, server_chs, client_chs)
            uplinks[q] = ledger.uplink_bytes(1)
        assert uplinks[True] * 5 < uplinks[False]

    def test_dense_form_resets_factors_and_moves_base(self):
        model = adapted_model()
        cfg = ExperimentConfig(rounds=2, delta_form="dense")
        shards = shards_for(model, 2)
        tasks = tasks_for(model, shards, rounds=2, steps=3, lr=0.1)
        server_chs, client_chs = memory_pairs(2)
        final, ledger, _ = federate(model, tasks, cfg, server_chs, client_chs)
        for target in ("embed.W", "rnn.U"):
            assert np.all(final.params.array(f"{target}.lora.B") == 0.0)
            assert not np.array_equal(
                final.params.array(target), model.params.array(target)
            )
        # dense broadcasts always carry the full set
        full_sz = serialized_size(model.params, "all")
        assert ledger.downlink_bytes(2) == 2 * (HEADER_LEN + full_sz)

    def test_channel_order_leaves_the_run_bitwise_alike(self):
        model = adapted_model()
        cfg = ExperimentConfig(rounds=2)
        shards = shards_for(model, 3)
        runs = []
        for order in (1, -1):
            tasks = tasks_for(model, shards, rounds=2)
            server_chs, client_chs = memory_pairs(3)
            final, ledger, _ = federate(model, tasks, cfg, server_chs[::order], client_chs)
            runs.append((final.params, ledger.byte_table()))
        (ours, table), (theirs, reversed_table) = runs
        assert ours.trainable_flat.tobytes() == theirs.trainable_flat.tobytes()
        assert ours.frozen_flat.tobytes() == theirs.frozen_flat.tobytes()
        assert table == reversed_table

    def test_sample_weighted_deltas(self):
        model = adapted_model()
        server_chs, client_chs = memory_pairs(2)
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


class _Recording(Client):
    """A client that keeps the bytes of each update it sends."""

    def __init__(self, *args):
        super().__init__(*args)
        self.sent = []

    def update(self):
        self.sent.append(super().update())
        return self.sent[-1]


class TestClientWithoutChannel:
    """A client paired with no channel end is bound by its id, never joins,
    and trades the server's own bytes: the rounds are those it plays over a
    channel."""

    def play(self, cfg, k, channel):
        """-> (final model, server ledger, {id: client}, {id: its update bytes})."""
        model = adapted_model()
        tasks = tasks_for(model, shards_for(model, k), rounds=cfg.rounds)
        clients = [_Recording(model, task, cfg) for task in tasks]
        server_chs, client_chs = memory_pairs(k) if channel else ([], [None] * k)
        final, ledger = run_server(model, server_chs, cfg, clients=list(zip(client_chs, clients)))
        return final, ledger, {c.id: c for c in clients}, {c.id: c.sent for c in clients}

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_same_updates_and_final_model_as_over_a_channel(self, policy, k):
        cfg = override(POLICIES[policy][0], rounds=3, quantize_payload=policy != "fedavg")
        final, ledger, clients, sent = self.play(cfg, k, channel=False)
        ref_final, ref_ledger, _, ref_sent = self.play(cfg, k, channel=True)
        assert sent == ref_sent and all(len(raw) == 3 for raw in sent.values())
        assert final.params.trainable_flat.tobytes() == ref_final.params.trainable_flat.tobytes()
        assert final.params.frozen_flat.tobytes() == ref_final.params.frozen_flat.tobytes()

        table, ref_table = ledger.byte_table(), ref_ledger.byte_table()
        assert sorted(ref_table) == [0, 1, 2, 3, 4] and sorted(table) == [1, 2, 3, 4]
        assert table == {rnd: ref_table[rnd] for rnd in table}
        for cid, client in clients.items():
            check_client_ledger(ledger, cid, client.ledger)

    def test_join_with_its_id_rejected(self):
        model = adapted_model()
        cfg = ExperimentConfig(rounds=1)
        (task,) = tasks_for(model, shards_for(model, 1), rounds=1)
        server_chs, client_chs = memory_pairs(1)
        scripted_join(client_chs[0], 0)
        with pytest.raises(ProtocolError, match="^duplicate join from client 0$"):
            run_server(model, server_chs, cfg, clients=[(None, Client(model, task, cfg))])


class _Tampering:
    """The server's end of a channel that rewrites each message it sends
    with `rewrite`, a function of the decoded message."""

    def __init__(self, end, rewrite):
        self.end, self.rewrite = end, rewrite

    def send(self, raw):
        self.end.send(encode_message(self.rewrite(decode_message(raw))))

    def recv(self):
        return self.end.recv()


class TestServerMessagesChecked:
    """A client reads every field of what the server sends it: a message
    not from the server, a shutdown with a payload and a dense broadcast
    whose factors do not start at zero each fail, naming the round and the
    client, with the client's ledger. So does a join with a payload, at the
    server."""

    def tampered(self, cfg, kind, rnd, change):
        """-> the ProtocolError of a two-round federation of one client whose
        server message of this kind and round went out with `change` made."""
        model = adapted_model()
        (task,) = tasks_for(model, shards_for(model, 1), rounds=2)
        client = Client(model, task, cfg)

        def rewrite(msg):
            return dataclasses.replace(msg, **change(msg)) if (msg.kind, msg.round) == (kind, rnd) else msg

        server_chs, client_chs = memory_pairs(1)
        with pytest.raises(ProtocolError) as exc:
            run_server(model, [_Tampering(server_chs[0], rewrite)], cfg, clients=[(client_chs[0], client)])
        assert exc.value.ledger is client.ledger
        assert client.ledger.downlink_bytes(rnd) > 0  # the tampered message is booked
        return exc.value

    @pytest.mark.parametrize("kind, rnd, what", [(KIND_GLOBAL_BROADCAST, 2, "broadcast"), (KIND_SHUTDOWN, 3, "shutdown")])
    def test_sender_other_than_the_server_rejected(self, kind, rnd, what):
        e = self.tampered(ExperimentConfig(rounds=2), kind, rnd, lambda msg: {"sender_id": 7})
        assert str(e) == f"client 0: round {rnd} {what} from sender 7, not the server"

    def test_shutdown_with_a_payload_rejected(self):
        e = self.tampered(ExperimentConfig(rounds=2), KIND_SHUTDOWN, 3, lambda msg: {"payload": b"bye"})
        assert str(e) == "client 0: round 3 shutdown carries 3 payload bytes"

    @pytest.mark.parametrize("rnd", [1, 2])
    def test_dense_broadcast_with_nonzero_factors_rejected(self, rnd):
        def nonzero_b(msg):
            params = deserialize_params(msg.payload)
            b = np.full(params.array("rnn.U.lora.B").shape, 0.5)
            return {"payload": serialize_params(replace_values(params, {"rnn.U.lora.B": b}))}

        cfg = ExperimentConfig(rounds=2, delta_form="dense")
        e = self.tampered(cfg, KIND_GLOBAL_BROADCAST, rnd, nonzero_b)
        assert str(e) == (
            f"client 0: round {rnd} dense broadcast has a non-zero 'rnn.U.lora.B'; "
            "dense rounds start at zero factors"
        )

    def test_join_with_a_payload_rejected(self):
        model = adapted_model()
        server_chs, client_chs = memory_pairs(2)
        scripted_join(client_chs[0], 0)
        client_chs[1].send(encode_message(WireMessage(KIND_ROUND_ACK, 0, 1, payload=b"hi")))
        with pytest.raises(ProtocolError) as exc:
            run_server(model, server_chs, ExperimentConfig(rounds=1))
        assert str(exc.value) == "round 0 join from client 1 carries 2 payload bytes"
        assert exc.value.ledger is not None


def test_apply_dense_folds_the_mean_into_the_base_entries():
    rng = np.random.default_rng(4)
    params = adapted_model().params
    factors_b = [n for n in params.names() if n.endswith(".lora.B")]
    # nonzero B factors, so that restarting them shows
    params = replace_values(
        params, {n: rng.standard_normal(params.array(n).shape) for n in factors_b}
    )
    layout = protocol._dense_layout(params)
    assert layout.names == ("embed.W", "rnn.U")
    mean = ParameterSet.from_vectors(
        layout, rng.standard_normal(layout.trainable_size), np.zeros(0)
    )
    trainable, frozen = params.trainable_flat.copy(), params.frozen_flat.copy()

    out = protocol.apply_dense(params, mean)
    assert out.layout is params.layout
    for name, got, _ in out.items():
        if name in layout.names:
            want = params.array(name) + mean.array(name)
        elif name in factors_b:
            want = np.zeros_like(got)
        else:  # the .lora.A factors and every untargeted entry
            want = params.array(name)
        assert got.tobytes() == want.tobytes(), name
    assert params.trainable_flat.tobytes() == trainable.tobytes()
    assert params.frozen_flat.tobytes() == frozen.tobytes()


class TestAggregationSpans:
    """The benchmark's tracer times aggregation by wrapping these names in
    `deltafed.protocol`, so each policy's round must call its own through them."""

    CALLED = {
        "factors": {"gradualdiff_aggregate"},
        "dense": {"mean_delta", "apply_dense", "dense_delta"},
        "fedavg": {"fedavg_aggregate"},
    }

    @pytest.mark.parametrize("policy", sorted(CALLED))
    def test_round_calls_its_rules_by_module_name(self, monkeypatch, policy):
        calls = Counter()
        for name in set().union(*self.CALLED.values()):
            def counting(*args, _fn=getattr(protocol, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(protocol, name, counting)
        model = adapted_model()
        tasks = tasks_for(model, shards_for(model, 1), rounds=1)
        server_chs, client_chs = memory_pairs(1)
        federate(model, tasks, POLICIES[policy][0], server_chs, client_chs)
        assert set(calls) == self.CALLED[policy]


class TestFactorBroadcast:
    """From round 2 a factor broadcast carries exactly the trainable entries."""

    def answer_round_2(self, model, params):
        """A client's answer to a full round-1 broadcast, then to `params`."""
        _, e = self.fed(model, [serialize_params(model.params), serialize_params(params)])
        raise e

    def test_missing_factor_rejected(self):
        model = adapted_model()
        short = drop(model.params.trainable_subset(), ["rnn.U.lora.B"])
        with pytest.raises(
            ProtocolError, match=r"^round 2 broadcast lacks trainable entry 'rnn.U.lora.B'$"
        ):
            self.answer_round_2(model, short)

    @staticmethod
    def fed(model, payloads):
        """A client fed broadcasts of these payloads for rounds 1, 2, ...,
        answering each but the last; -> (the client, the ProtocolError it raised)."""
        client = Client(model, tasks_for(model, shards_for(model, 1))[0], ExperimentConfig())
        client.join()
        with pytest.raises(ProtocolError) as exc:
            for rnd, payload in enumerate(payloads, start=1):
                client.receive(
                    encode_message(
                        WireMessage(KIND_GLOBAL_BROADCAST, rnd, SERVER_SENDER, payload)
                    )
                )
                client.update()
        return client, exc.value

    def test_client_error_carries_its_ledger(self):
        model = adapted_model()
        full = serialize_params(model.params)
        short = serialize_params(drop(model.params.trainable_subset(), ["rnn.U.lora.B"]))
        client, e = self.fed(model, [full, short])
        assert str(e).startswith("round 2 broadcast lacks")
        ledger = e.ledger
        assert ledger is client.ledger
        assert ledger.uplink_bytes(0) == HEADER_LEN  # the join
        assert ledger.uplink_bytes(1) > 0  # round 1's update
        assert ledger.downlink_bytes(2) == HEADER_LEN + len(short)

    def test_driven_client_error_names_the_client(self, monkeypatch):
        """Inside the federation the same error names its client, with the
        client's ledger."""
        model = adapted_model()
        short = drop(model.params.trainable_subset(), ["rnn.U.lora.B"])
        real = protocol.broadcast

        def short_in_round_2(model, rnd, cfg):
            msg = real(model, rnd, cfg)
            if rnd == 2:
                msg = WireMessage(msg.kind, rnd, msg.sender_id, serialize_params(short))
            return msg

        monkeypatch.setattr(protocol, "broadcast", short_in_round_2)
        cfg = ExperimentConfig(rounds=2)
        server_chs, client_chs = memory_pairs(1)
        with pytest.raises(ProtocolError) as exc:
            federate(model, tasks_for(model, shards_for(model, 1)), cfg, server_chs, client_chs)
        assert str(exc.value) == "client 0: round 2 broadcast lacks trainable entry 'rnn.U.lora.B'"
        assert exc.value.ledger.uplink_bytes(0) == HEADER_LEN  # the client's own
        assert exc.value.ledger.uplink_bytes(2) == 0

    def test_frozen_entry_rejected(self):
        model = adapted_model()
        frozen = [n for n in model.params.names() if not model.params.trainable(n)]
        carried = drop(model.params, (n for n in frozen if n != "rnn.U"))
        with pytest.raises(
            ProtocolError, match=r"^round 2 broadcast carries non-trainable entry 'rnn.U'$"
        ):
            self.answer_round_2(model, carried)

    def client_error(self, model, payloads):
        """The ProtocolError a client raised fed these broadcast payloads."""
        _, e = self.fed(model, payloads)
        assert e.ledger is not None
        assert e.ledger.downlink_bytes(len(payloads)) == HEADER_LEN + len(payloads[-1])
        return e

    @staticmethod
    def reshaped(params, name, shape):
        wrong = ParameterSet([(name, np.zeros(shape), params.trainable(name))])
        return merged_with(drop(params, [name]), wrong)

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
        server_chs, client_chs = memory_pairs(1)
        client_chs[0].send(b"last")
        client_chs[0].close()
        assert server_chs[0].recv() == b"last"  # queued messages come first
        start = time.monotonic()
        for _ in range(2):  # and every later recv ends too
            with pytest.raises(ProtocolError, match="closed"):
                server_chs[0].recv()
        assert time.monotonic() - start < 2.0

    def test_empty_channel_fails_at_once(self):
        server_chs, client_chs = memory_pairs(1)
        client_chs[0].send(b"only")
        assert server_chs[0].recv() == b"only"
        with pytest.raises(ProtocolError, match="^memory channel is empty$"):
            server_chs[0].recv()


class TestTcpTransport:
    def test_channel_reassembles_split_frames(self):
        a, b = socket.socketpair()
        hub = Hub(timeout=5.0)
        left, right = TcpChannel(a, hub), TcpChannel(b, hub)
        msg = encode_message(WireMessage(1, 2, 3, payload=b"x" * 100))
        a.sendall(msg[:10])
        a.sendall(msg[10:40])
        a.sendall(msg[40:])
        assert right.recv() == msg
        left.close()
        right.close()

    def test_eof_mid_message_raises(self):
        a, b = socket.socketpair()
        right = TcpChannel(b, Hub(timeout=5.0))
        msg = encode_message(WireMessage(1, 2, 3, payload=b"y" * 50))
        a.sendall(msg[:30])
        a.close()
        with pytest.raises(ProtocolError, match="closed"):
            right.recv()
        right.close()

    def test_oversized_declared_length_rejected_at_once(self):
        a, b = socket.socketpair()
        right = TcpChannel(b, Hub(timeout=60.0))
        header = bytearray(encode_message(WireMessage(1, 2, 3)))
        header[HEADER_LEN - 8 :] = (2**40).to_bytes(8, "little")
        a.sendall(bytes(header))
        start = time.monotonic()
        with pytest.raises(FormatError, match=str(2**40)):
            right.recv()
        assert time.monotonic() - start < 2.0
        a.close()
        right.close()

    def test_large_message_crosses_one_thread(self):
        """A message larger than the socket buffers crosses a channel pair
        that one thread drives: send buffers what the socket refuses, and
        the receiver's recv pumps the sender's buffer."""
        a, b = socket.socketpair()
        hub = Hub(timeout=10.0)
        left, right = TcpChannel(a, hub), TcpChannel(b, hub)
        payload = np.random.default_rng(0).bytes(16 << 20)
        msg = encode_message(WireMessage(1, 2, 3, payload=payload))
        left.send(msg)
        assert right.recv() == msg
        ack = encode_message(WireMessage(4, 0, 1))
        right.send(ack)  # and the pair still carries messages both ways
        assert left.recv() == ack
        left.close()
        right.close()

    def test_accept_waits_only_the_hub_timeout(self):
        listener = TcpListener()
        start = time.monotonic()
        with pytest.raises(ProtocolError, match="^no client connected within 0.2s$"):
            listener.accept(Hub(timeout=0.2))
        assert time.monotonic() - start < 2.0
        listener.close()

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
            tcp_connect(listener.host, listener.port, Hub(timeout=60.0))
        assert time.monotonic() - start < 2.0

    def test_end_to_end_matches_memory_run(self):
        model = adapted_model()
        cfg = ExperimentConfig(rounds=2)
        shards = shards_for(model, 2)

        tasks = tasks_for(model, shards, rounds=2)
        server_chs, client_chs = memory_pairs(2)
        final_mem, ledger_mem, _ = federate(
            model, tasks, cfg, server_chs, client_chs
        )

        listener, hub = TcpListener(), Hub(timeout=10.0)
        client_chs_tcp, accepted = [], []
        for _ in range(2):
            client_chs_tcp.append(tcp_connect(listener.host, listener.port, hub))
            accepted.append(listener.accept(hub))
        final_tcp, ledger_tcp, _ = federate(
            model, tasks, cfg, accepted, client_chs_tcp
        )
        listener.close()
        for ch in accepted + client_chs_tcp:
            ch.close()

        for name in model.params.names():
            assert (
                final_mem.params.array(name).tobytes()
                == final_tcp.params.array(name).tobytes()
            )
        assert ledger_mem.byte_table() == ledger_tcp.byte_table()
