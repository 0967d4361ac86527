"""The federation's round, without I/O, and the one loop that drives it.

A round is the server's `broadcast` of the global model (the full set in
round 1, then only the trainable entries under delta aggregation with factor
deltas); each client's install, training (`submit`, then `collect`) and
update, all in `Client`, one client's side as bytes in and bytes out with
its own ledger; and the server's `fold_updates`, which checks each update
once, as it arrives, against the layout its `RoundPolicy` names. Joins are
round 0 and the shutdown round T+1. Bytes are counted on encoded messages,
so memory and TCP transports account identically.

`run_server` is the one round loop. On one thread it holds the server's
channel ends and each in-process client with its own end: the broadcast
goes out on every channel and each client submits its training; then, in
client-id order, each client collects and sends its update and the server
receives it. A client's error is prefixed `client <i>: ` as it is raised
(`blame`) and carries the client's ledger. Central and local mode drive
lone `Client`s with no channel (`harness.run_alone`), under the same
`blame`. A client trains through a `LocalTrainer` in this process or a
`workers.WorkerTrainer`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .aggregate import (
    AGG_FEDAVG,
    AGG_GRADUALDIFF,
    FORM_DENSE,
    FORM_FACTORS,
    ClientUpdate,
    fedavg_aggregate,
    gradualdiff_aggregate,
    mean_delta,
)
from .config import ExperimentConfig
from .errors import ProtocolError
from .model import SEED_CLIENT, LmModel, Windows
from .optim import OptimizerConfig, OptimizerState, init_state, local_train_round
from .params import Layout, ParameterSet, differences, subtract_trainable
from .wire import (
    FLAG_FACTORS,
    FLAG_QUANTIZED,
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
)

SERVER_SENDER = 0xFFFFFFFF


class TrafficLedger:
    """Per-round, per-client byte and message counts for both directions."""

    _KEYS = ("down", "up", "down_msgs", "up_msgs")

    def __init__(self) -> None:
        self._rounds: dict[int, dict] = {}

    def _slot(self, rnd: int) -> dict:
        if rnd not in self._rounds:
            self._rounds[rnd] = {key: {} for key in self._KEYS} | {"wall_ms": 0.0}
        return self._rounds[rnd]

    def _add(self, direction: str, rnd: int, client_id: int, nbytes: int) -> None:
        slot = self._slot(rnd)
        for key, n in ((direction, nbytes), (f"{direction}_msgs", 1)):
            slot[key][client_id] = slot[key].get(client_id, 0) + n

    def add_down(self, rnd: int, client_id: int, nbytes: int) -> None:
        self._add("down", rnd, client_id, nbytes)

    def add_up(self, rnd: int, client_id: int, nbytes: int) -> None:
        self._add("up", rnd, client_id, nbytes)

    def set_wall_ms(self, rnd: int, ms: float) -> None:
        self._slot(rnd)["wall_ms"] = ms

    def wall_ms(self, rnd: int) -> float:
        return self._rounds.get(rnd, {}).get("wall_ms", 0.0)

    def rounds(self) -> list[int]:
        return sorted(self._rounds)

    def _bytes(self, direction: str, rnd: int | None) -> int:
        rounds = [rnd] if rnd is not None else self.rounds()
        return sum(sum(self._rounds[r][direction].values()) for r in rounds if r in self._rounds)

    def downlink_bytes(self, rnd: int | None = None) -> int:
        return self._bytes("down", rnd)

    def uplink_bytes(self, rnd: int | None = None) -> int:
        return self._bytes("up", rnd)

    def total_bytes(self) -> int:
        return self.downlink_bytes() + self.uplink_bytes()

    def byte_table(self) -> dict:
        """Canonical timing-free view, comparable across transports."""
        return {
            rnd: {key: dict(sorted(self._rounds[rnd][key].items())) for key in self._KEYS}
            for rnd in self.rounds()
        }


def _expect(cond: bool, message: str, ledger: TrafficLedger) -> None:
    if not cond:
        raise ProtocolError(message, ledger=ledger)


@contextmanager
def prefixed(text: str | None, ledger: TrafficLedger | None = None, culprit: bool = False):
    """Prefix an exception raised inside with `text: `, keeping its class,
    attributes and traceback; a `culprit` prefix names who failed, once. A
    ProtocolError raised without a ledger gets `ledger`."""
    try:
        yield
    except Exception as e:
        if text and not (culprit and hasattr(e, "culprit")):
            e.args = (f"{text}: {e}", *e.args[1:])
            if culprit:
                e.culprit = text
        if isinstance(e, ProtocolError) and e.ledger is None:
            e.ledger = ledger
        raise


def blame(who: str, ledger: TrafficLedger | None = None):
    """Name `who` as the culprit of a failure inside."""
    return prefixed(who, ledger, culprit=True)


@dataclass(frozen=True)
class RoundPolicy:
    """What one (aggregation, delta_form) pair sends, the layout its updates
    must have, and how they are folded. The functions look the aggregation
    rules up in this module at call time, so a wrapper put there sees them."""

    factor_broadcasts: bool  # rounds >= 2 broadcast the trainable entries only
    uplink_kind: int
    uplink_flags: int  # FLAG_QUANTIZED is added when a delta is quantized
    form: str | None  # the uplink's delta form; None for full models
    covers: str  # what an update's entries are, for errors
    layout: Callable  # global params -> the layout every update must have
    encode: Callable  # (trained model, round-start params) -> uplinked params
    fold: Callable  # (global params, [ClientUpdate], weighting) -> params


def _dense_layout(params: ParameterSet) -> Layout:
    """One trainable entry per adapted target, shaped like its base entry."""
    targets = sorted(n.removesuffix(".lora.B") for n in params.names() if n.endswith(".lora.B"))
    shapes = tuple(params.layout.slots[t][3] for t in targets)
    return Layout(tuple(targets), shapes, (True,) * len(targets))


# Full models carry no delta form, so both fedavg keys share one entry.
_FEDAVG = RoundPolicy(
    False, KIND_FULL_MODEL_UPDATE, 0, None, "global model",
    lambda params: params.layout,
    lambda model, start: model.params,
    lambda params, updates, weighting: fedavg_aggregate(updates),
)
_POLICIES = {
    (AGG_GRADUALDIFF, FORM_FACTORS): RoundPolicy(
        True, KIND_DELTA_UPDATE, FLAG_FACTORS, FORM_FACTORS, "trainable set",
        lambda params: params.layout.trainable_only,
        lambda model, start: subtract_trainable(model.params, start),
        lambda params, updates, weighting: gradualdiff_aggregate(params, updates, weighting),
    ),
    (AGG_GRADUALDIFF, FORM_DENSE): RoundPolicy(
        False, KIND_DELTA_UPDATE, 0, FORM_DENSE, "adapted targets",
        _dense_layout,
        lambda model, start: dense_delta(model, start),
        lambda params, updates, weighting: apply_dense(params, mean_delta(updates, weighting)),
    ),
    (AGG_FEDAVG, FORM_FACTORS): _FEDAVG,
    (AGG_FEDAVG, FORM_DENSE): _FEDAVG,
}


def _policy(cfg: ExperimentConfig) -> RoundPolicy:
    return _POLICIES[(cfg.aggregation, cfg.delta_form)]


def broadcast(model: LmModel, rnd: int, cfg: ExperimentConfig) -> WireMessage:
    """The server's round-`rnd` broadcast of the global model."""
    factors_only = _policy(cfg).factor_broadcasts
    subset = "trainable" if factors_only and rnd > 1 else "all"
    flags = FLAG_FACTORS if factors_only else 0
    payload = serialize_params(model.params, subset)
    return WireMessage(KIND_GLOBAL_BROADCAST, rnd, SERVER_SENDER, flags, payload)


def _misfit(rnd: int, want: Layout, got: Layout, factors: bool) -> ProtocolError:
    """The error for a round-`rnd` broadcast laid out as `got`, not `want`,
    naming the first entry that does not fit. The flags come from the model."""
    missing, extra, name = differences(want, got)
    if name is None:
        name = min(missing + extra)
        if name in missing:
            what = "lacks trainable" if factors else "lacks"
        else:
            what = "carries non-trainable" if factors else "carries unknown"
        return ProtocolError(f"round {rnd} broadcast {what} entry {name!r}")
    return ProtocolError(
        f"round {rnd} broadcast entry {name!r} has shape {got.slots[name][3]}, "
        f"the model's is {want.slots[name][3]}"
    )


def fold_updates(
    model: LmModel,
    rnd: int,
    updates: Iterable[tuple[int, WireMessage]],
    cfg: ExperimentConfig,
    sample_counts: dict[int, int],
    ledger: TrafficLedger | None = None,
) -> LmModel:
    """The server's round end: check and decode each (client id, update) as
    it arrives, then fold them all into the global model. An update must have
    exactly its policy's layout: the same entry names and shapes."""
    policy = _policy(cfg)
    want = policy.layout(model.params)
    # a full model takes its trainable flags from the global model
    full = policy.form is None
    trainable = set(model.params.trainable_names()) if full else None
    received = []
    for cid, msg in updates:
        _expect(
            msg.round == rnd,
            f"client {cid} answered for round {msg.round}, expected {rnd}",
            ledger,
        )
        _expect(
            msg.sender_id == cid,
            f"update on client {cid}'s channel claims sender {msg.sender_id}",
            ledger,
        )
        _expect(
            msg.kind == policy.uplink_kind,
            f"client {cid} sent kind {msg.kind}, expected {policy.uplink_kind}",
            ledger,
        )
        with prefixed(f"update from client {cid} in round {rnd}"):
            params = deserialize_params(msg.payload, trainable=trainable)
        if params.layout != want:
            missing, extra, name = differences(want, params.layout)
            if name is None:
                why = f"does not cover the {policy.covers}: missing {missing}, extra {extra}"
            else:
                shape, expected = params.layout.slots[name][3], want.slots[name][3]
                why = f"has entry {name!r} of shape {shape}, expected {expected}"
            what = "full model" if full else "delta"
            raise ProtocolError(f"{what} from client {cid} in round {rnd} {why}", ledger=ledger)
        received.append(ClientUpdate(cid, sample_counts[cid], params))
    with prefixed(None, ledger):  # fedavg's frozen-entry check knows no ledger
        folded = policy.fold(model.params, received, cfg.delta_weighting)
    return model.with_params(folded)


def run_server(
    model: LmModel, channels: list, cfg: ExperimentConfig,
    sample_counts: dict[int, int] | None = None, on_round=None,
    clients: Iterable[tuple[object, Client]] = (),
) -> tuple[LmModel, TrafficLedger]:
    """Drive T = cfg.rounds rounds on this thread; -> (final global model,
    server ledger). `channels` are the server's ends, one per client, in any
    order; the join ack's sender_id binds them. `clients` pairs each
    in-process `Client` with its own end of one; any other client answers
    from the far end. `on_round(t, model)` fires after each round, off the
    round clock."""
    ledger = TrafficLedger()
    _expect(bool(channels), "a federation needs at least one client channel", ledger)
    ours: dict[int, tuple[object, Client]] = {}
    for end, client in clients:
        with blame(f"client {client.id}", client.ledger):
            end.send(client.join())
        ours[client.id] = end, client
    by_client: dict[int, object] = {}
    for ch in channels:
        with prefixed(None, ledger):
            raw = ch.recv()
        msg = decode_message(raw)
        why = f"expected a join ack, got kind {msg.kind} round {msg.round}"
        _expect(msg.kind == KIND_ROUND_ACK and msg.round == 0, why, ledger)
        _expect(msg.sender_id not in by_client, f"duplicate join from client {msg.sender_id}", ledger)
        by_client[msg.sender_id] = ch
        ledger.add_up(0, msg.sender_id, len(raw))
    client_ids = sorted(by_client)

    counts = sample_counts or {cid: 1 for cid in client_ids}
    for cid in client_ids:
        _expect(cid in counts, f"no sample count for client {cid}", ledger)

    def deliver(msg: WireMessage) -> None:
        """Send `msg` on every channel; each in-process client takes it."""
        raw = encode_message(msg)
        for cid in client_ids:
            by_client[cid].send(raw)
            ledger.add_down(msg.round, cid, len(raw))
        for cid, (end, client) in sorted(ours.items()):
            with blame(f"client {cid}", client.ledger):
                client.receive(end.recv())

    def updates(rnd: int):
        """Each client's update, in id order; an in-process client sends its own first."""
        for cid in client_ids:
            if cid in ours:
                end, client = ours[cid]
                with blame(f"client {cid}", client.ledger):
                    end.send(client.update())
            with prefixed(f"no update from client {cid} for round {rnd}", ledger):
                raw = by_client[cid].recv()
            ledger.add_up(rnd, cid, len(raw))
            yield cid, decode_message(raw)

    for t in range(1, cfg.rounds + 1):
        start = time.perf_counter()
        deliver(broadcast(model, t, cfg))
        model = fold_updates(model, t, updates(t), cfg, counts, ledger)
        ledger.set_wall_ms(t, (time.perf_counter() - start) * 1000.0)
        if on_round is not None:
            on_round(t, model)
    deliver(WireMessage(KIND_SHUTDOWN, cfg.rounds + 1, SERVER_SENDER))
    return model, ledger


def apply_dense(params: ParameterSet, mean: ParameterSet) -> ParameterSet:
    """Fold the mean dense delta, laid out as `_dense_layout(params)`, into
    the base entries and restart the factors."""
    vectors = [params.frozen_flat.copy(), params.trainable_flat.copy()]
    slots = params.layout.slots
    for name in mean.names():
        flag, lo, hi, _ = slots[name]
        vectors[flag][lo:hi] += mean.array(name).reshape(-1)
        flag, lo, hi, _ = slots[f"{name}.lora.B"]
        vectors[flag][lo:hi] = 0.0
    return ParameterSet.from_vectors(params.layout, vectors[True], vectors[False])


@dataclass(frozen=True)
class ClientTask:
    client_id: int
    shard: Windows
    opt_cfg: OptimizerConfig
    batch_size: int
    steps_per_round: int
    seed: int

    def rng(self) -> np.random.Generator:
        return np.random.default_rng([self.seed, SEED_CLIENT, self.client_id])


class LocalTrainer:
    """A client's training in this process, run inside `submit`: its task,
    and the optimizer state and shuffle/dropout RNG it carries across rounds."""

    def __init__(self, task: ClientTask) -> None:
        self.task = task
        self.client_id = task.client_id
        self._rng = task.rng()
        self._state: OptimizerState | None = None
        self._result: tuple[LmModel, float] | None = None

    def submit(self, model: LmModel) -> None:
        """One round of local steps from `model`, kept for `collect`."""
        if self._state is None:
            self._state = init_state(model.params)
        task = self.task
        model, self._state, loss = local_train_round(
            model, self._state, task.shard, task.opt_cfg, self._rng,
            batch_size=task.batch_size, steps=task.steps_per_round,
        )
        self._result = model, loss

    def collect(self) -> tuple[LmModel, float]:
        """-> (trained model, mean loss) of the submitted round."""
        return self._result


class Client:
    """One client's side of the protocol, without I/O: `join`, then `receive`
    each server message and answer each broadcast with `update`. The bytes
    are booked in the client's own ledger, which its ProtocolErrors carry."""

    def __init__(self, model: LmModel, trainer, cfg: ExperimentConfig) -> None:
        self.id = trainer.client_id
        self.model = model  # installed, then trained
        self.trainer = trainer
        self.cfg = cfg
        self.ledger = TrafficLedger()
        self.losses: list[float] = []
        self._start: ParameterSet | None = None  # the round-start values

    def join(self) -> bytes:
        raw = encode_message(WireMessage(KIND_ROUND_ACK, 0, self.id))
        self.ledger.add_up(0, self.id, len(raw))
        return raw

    def receive(self, raw: bytes) -> bool:
        """Take one message from the server: install a broadcast and submit
        its training; -> False at the shutdown."""
        rnd = len(self.losses) + 1
        with prefixed(None, self.ledger):
            msg = decode_message(raw)
            self.ledger.add_down(msg.round, self.id, len(raw))
            if msg.kind == KIND_SHUTDOWN and msg.round == rnd:
                return False
            why = f"expected round {rnd}, got kind {msg.kind} round {msg.round}"
            _expect(msg.kind == KIND_GLOBAL_BROADCAST and msg.round == rnd, why, self.ledger)
            # a factor broadcast keeps the frozen vector; each kind must fit exactly
            params = self.model.params
            incoming = deserialize_params(msg.payload, trainable=set(params.trainable_names()))
            factors = rnd > 1 and _policy(self.cfg).factor_broadcasts
            want = params.layout.trainable_only if factors else params.layout
            if incoming.layout != want:
                raise _misfit(rnd, want, incoming.layout, factors)
            self._start = params.with_trainable(incoming.trainable_flat) if factors else incoming
            self.model = self.model.with_params(self._start)
            with prefixed(f"round {rnd}"):
                self.trainer.submit(self.model)
        return True

    def update(self) -> bytes:
        """Collect the round's training; -> its encoded update."""
        rnd = len(self.losses) + 1
        with prefixed(f"round {rnd}"):
            self.model, loss = self.trainer.collect()
        self.losses.append(loss)
        policy = _policy(self.cfg)
        quantize = self.cfg.quantize_payload and policy.form is not None  # never full models
        payload = serialize_params(policy.encode(self.model, self._start), "all", quantize_payload=quantize)
        flags = policy.uplink_flags | (FLAG_QUANTIZED if quantize else 0)
        raw = encode_message(WireMessage(policy.uplink_kind, rnd, self.id, flags, payload))
        self.ledger.add_up(rnd, self.id, len(raw))
        return raw


def check_client_ledger(
    server: TrafficLedger, client_id: int, client: TrafficLedger
) -> None:
    """Raise ProtocolError at the first round and direction where a client's
    own ledger disagrees with the server's on its bytes or message count."""
    ours, theirs = server.byte_table(), client.byte_table()
    for rnd in sorted(set(ours) | set(theirs)):
        for direction in ("down", "up"):
            for key, what in ((direction, "bytes"), (f"{direction}_msgs", "messages")):
                want = ours.get(rnd, {}).get(key, {}).get(client_id, 0)
                got = theirs.get(rnd, {}).get(key, {}).get(client_id, 0)
                _expect(
                    got == want,
                    f"client {client_id}'s ledger holds {got} {direction}link "
                    f"{what} in round {rnd}, the server's {want}",
                    server,
                )


def dense_delta(model: LmModel, start: ParameterSet) -> ParameterSet:
    """Each adapted target's change in scaling * A @ B since `start`, laid
    out as `_dense_layout(start)`."""
    def product(ps: ParameterSet, target: str) -> np.ndarray:
        return ps.array(f"{target}.lora.A") @ ps.array(f"{target}.lora.B")

    layout = _dense_layout(start)
    if not layout.names:
        raise ProtocolError("dense deltas require an adapted model")
    vec = np.empty(layout.trainable_size)
    for target, view in layout.views(vec).items():
        change = product(model.params, target) - product(start, target)
        view[...] = model.adapters[target].scaling * change
    return ParameterSet.from_vectors(layout, vec, np.zeros(0))
