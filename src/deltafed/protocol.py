"""Round state machine for the delta-averaging federation.

Server loop per round t: broadcast the global model (full set in round 1,
trainable entries only afterwards when running delta aggregation with factor
deltas), block until all K clients answer for round t, aggregate, advance.
Join handshakes are acks for round 0; the final shutdown is ledgered under
round T+1. All byte counts are taken on encoded messages, so memory and TCP
transports account identically.

A round is three functions: the server's `broadcast`, each client's
`answer_broadcast` and the server's `fold_updates`. `run_server` and
`run_client` call them over channels; central mode calls them directly. All
five take the run's `ExperimentConfig`; what depends on its aggregation and
delta form is one `RoundPolicy` table entry. A client trains through its
trainer: a `LocalTrainer` in this process, or a `workers.WorkerTrainer` that
runs one in a forked worker.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .aggregate import (
    AGG_FEDAVG,
    AGG_GRADUALDIFF,
    FORM_DENSE,
    FORM_FACTORS,
    KIND_DELTA,
    KIND_FULL,
    ClientUpdate,
    check_coverage,
    fedavg_aggregate,
    gradualdiff_aggregate,
    mean_delta,
)
from .config import ExperimentConfig
from .errors import DeltaFedError, ProtocolError, StructureError
from .model import SEED_CLIENT, LmModel, Windows
from .optim import OptimizerConfig, OptimizerState, init_state, local_train_round
from .params import Layout, ParameterSet, Tensor, check_compatible, subtract_trainable
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
def _ledgered(ledger: TrafficLedger | None):
    """Attach the partial ledger to a ProtocolError raised without one."""
    try:
        yield
    except ProtocolError as e:
        if e.ledger is None:
            e.ledger = ledger
        raise


def _recv(channel, ledger: TrafficLedger) -> bytes:
    """recv that re-raises transport failures with the partial ledger attached."""
    with _ledgered(ledger):
        return channel.recv()


@dataclass(frozen=True)
class RoundPolicy:
    """What one (aggregation, delta_form) pair sends, and how it is folded."""

    factor_broadcasts: bool  # rounds >= 2 broadcast the trainable entries only
    uplink_kind: int
    uplink_flags: int  # FLAG_QUANTIZED is added when a delta is quantized
    form: str | None  # the uplink's delta form; None for full models
    encode: Callable  # (trained model, round-start params) -> uplinked params
    fold: Callable  # (global params, [ClientUpdate], weighting, ledger) -> params


def _fold_fedavg(global_, updates, weighting, ledger) -> ParameterSet:
    for u in updates:
        try:
            check_compatible(global_, u.params)
        except StructureError as e:
            raise ProtocolError(
                f"full model from client {u.client_id} does not match the "
                f"global model: {e}",
                ledger=ledger,
            ) from e
    return fedavg_aggregate(updates)


def _fold_factors(global_, updates, weighting, ledger) -> ParameterSet:
    return gradualdiff_aggregate(global_, updates, weighting)


def _fold_dense(global_, updates, weighting, ledger) -> ParameterSet:
    targets = [n.removesuffix(".lora.B") for n in global_.names() if n.endswith(".lora.B")]
    for u in updates:
        check_coverage(targets, u, "adapted targets")
    return apply_dense(global_, mean_delta(updates, weighting), ledger)


# Full models carry no delta form, so both fedavg keys share one entry.
_FEDAVG = RoundPolicy(
    False, KIND_FULL_MODEL_UPDATE, 0, None,
    lambda model, start: model.params, _fold_fedavg,
)
_POLICIES = {
    (AGG_GRADUALDIFF, FORM_FACTORS): RoundPolicy(
        True, KIND_DELTA_UPDATE, FLAG_FACTORS, FORM_FACTORS,
        lambda model, start: subtract_trainable(model.params, start), _fold_factors,
    ),
    (AGG_GRADUALDIFF, FORM_DENSE): RoundPolicy(
        False, KIND_DELTA_UPDATE, 0, FORM_DENSE,
        lambda model, start: dense_delta(model, start), _fold_dense,
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


def answer_broadcast(
    msg: WireMessage, model: LmModel, trainer, cfg: ExperimentConfig
) -> tuple[LmModel, float, WireMessage]:
    """A client's round: install the broadcast, train, encode the update.

    `trainer` is the client's: a `LocalTrainer`, or anything with its
    `client_id` and `train`. -> (trained model, mean train loss, update message).
    """
    policy = _policy(cfg)
    params = model.params
    incoming = deserialize_params(msg.payload, trainable=set(params.trainable_names()))
    factors = msg.round > 1 and policy.factor_broadcasts
    want = params.layout.trainable_only if factors else params.layout
    if incoming.layout != want:
        raise _misfit(msg.round, want, incoming.layout, factors)
    # a factor broadcast keeps the model's frozen vector
    model = model.with_params(params.with_trainable(incoming.trainable_flat) if factors else incoming)
    start_params = model.params

    model, loss = trainer.train(model)

    quantize = cfg.quantize_payload and policy.form is not None  # never full models
    uplink = policy.encode(model, start_params)
    payload = serialize_params(uplink, "all", quantize_payload=quantize)
    flags = policy.uplink_flags | (FLAG_QUANTIZED if quantize else 0)
    update = WireMessage(policy.uplink_kind, msg.round, trainer.client_id, flags, payload)
    return model, loss, update


def _misfit(rnd: int, want: Layout, got: Layout, factors: bool) -> ProtocolError:
    """The error for a round-`rnd` broadcast laid out as `got`, not `want`,
    naming the first entry that does not fit. The flags come from the model."""
    stray = sorted(set(want.names) ^ set(got.names))
    if stray:
        name = stray[0]
        if name in want.slots:
            what = "lacks trainable" if factors else "lacks"
        else:
            what = "carries non-trainable" if factors else "carries unknown"
        return ProtocolError(f"round {rnd} broadcast {what} entry {name!r}")
    name = next(n for n in want.names if got.slots[n][3] != want.slots[n][3])
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
    it arrives, then fold them all into the global model."""
    policy = _policy(cfg)
    # a full model takes its trainable flags from the global model
    full = policy.form is None
    trainable = set(model.params.trainable_names()) if full else None
    kind = KIND_FULL if full else KIND_DELTA
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
        try:
            params = deserialize_params(msg.payload, trainable=trainable)
        except DeltaFedError as e:
            e.args = (f"update from client {cid} in round {rnd}: {e}", *e.args[1:])
            raise
        received.append(
            ClientUpdate(cid, rnd, sample_counts[cid], kind, params, form=policy.form)
        )
    with _ledgered(ledger):  # aggregate's own checks know no ledger
        folded = policy.fold(model.params, received, cfg.delta_weighting, ledger)
    return model.with_params(folded)


def _receive_updates(by_client: dict, rnd: int, ledger: TrafficLedger):
    for cid in sorted(by_client):
        raw = _recv(by_client[cid], ledger)
        msg = decode_message(raw)
        ledger.add_up(rnd, cid, len(raw))
        yield cid, msg


def run_server(
    model: LmModel,
    channels: list,
    cfg: ExperimentConfig,
    sample_counts: dict[int, int] | None = None,
    on_round=None,
) -> tuple[LmModel, TrafficLedger]:
    """Drive T = cfg.rounds rounds over the given per-client channels.

    `channels` carry one client each, in any order; the join ack's sender_id
    binds them. Returns the final global model and the server-side ledger.
    `on_round(t, model)` fires after each round, off the round clock.
    """
    ledger = TrafficLedger()
    by_client: dict[int, object] = {}
    for ch in channels:
        raw = _recv(ch, ledger)
        msg = decode_message(raw)
        _expect(
            msg.kind == KIND_ROUND_ACK and msg.round == 0,
            f"expected a join ack, got kind {msg.kind} round {msg.round}",
            ledger,
        )
        _expect(
            msg.sender_id not in by_client,
            f"duplicate join from client {msg.sender_id}",
            ledger,
        )
        by_client[msg.sender_id] = ch
        ledger.add_up(0, msg.sender_id, len(raw))
    client_ids = sorted(by_client)

    counts = sample_counts or {cid: 1 for cid in client_ids}
    for cid in client_ids:
        _expect(cid in counts, f"no sample count for client {cid}", ledger)

    for t in range(1, cfg.rounds + 1):
        start = time.perf_counter()
        raw = encode_message(broadcast(model, t, cfg))
        for cid in client_ids:
            by_client[cid].send(raw)
            ledger.add_down(t, cid, len(raw))
        model = fold_updates(
            model, t, _receive_updates(by_client, t, ledger), cfg, counts, ledger
        )
        ledger.set_wall_ms(t, (time.perf_counter() - start) * 1000.0)
        if on_round is not None:
            on_round(t, model)

    raw = encode_message(WireMessage(KIND_SHUTDOWN, cfg.rounds + 1, SERVER_SENDER))
    for cid in client_ids:
        by_client[cid].send(raw)
        ledger.add_down(cfg.rounds + 1, cid, len(raw))
    return model, ledger


def apply_dense(
    params: ParameterSet, mean: ParameterSet, ledger: TrafficLedger | None = None
) -> ParameterSet:
    """Fold dense per-target deltas into the base and restart the factors.
    `mean` holds adapted targets only, as `_fold_dense` checks."""
    new_vals: dict[str, np.ndarray] = {}
    for name in mean.names():
        base, delta = params.array(name), mean.array(name)
        _expect(
            base.shape == delta.shape,
            f"dense delta for {name!r} has shape {delta.shape}, base is {base.shape}",
            ledger,
        )
        new_vals[name] = base + delta
        new_vals[f"{name}.lora.B"] = np.zeros_like(params.array(f"{name}.lora.B"))
    return params.replace_values(new_vals)


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
    """A client's training in this process: its task, plus the optimizer
    state and the shuffle/dropout RNG it carries from round to round."""

    def __init__(self, task: ClientTask) -> None:
        self.task = task
        self.client_id = task.client_id
        self._rng = task.rng()
        self._state: OptimizerState | None = None

    def train(self, model: LmModel) -> tuple[LmModel, float]:
        """One round of local steps from `model`; -> (trained model, mean loss)."""
        if self._state is None:
            self._state = init_state(model.params)
        task = self.task
        model, self._state, loss = local_train_round(
            model,
            self._state,
            task.shard,
            task.opt_cfg,
            self._rng,
            batch_size=task.batch_size,
            steps=task.steps_per_round,
        )
        return model, loss


@dataclass
class ClientResult:
    losses: list[float] = field(default_factory=list)
    ledger: TrafficLedger = field(default_factory=TrafficLedger)


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
    def product(ps: ParameterSet, target: str) -> np.ndarray:
        return ps.array(f"{target}.lora.A") @ ps.array(f"{target}.lora.B")

    entries = []
    for target in sorted(model.adapters):
        d = model.adapters[target].scaling * (product(model.params, target) - product(start, target))
        entries.append((target, Tensor.from_array(d), True))
    if not entries:
        raise ProtocolError("dense deltas require an adapted model")
    return ParameterSet(entries)


def run_client(channel, model: LmModel, trainer, cfg: ExperimentConfig) -> ClientResult:
    """Mirror of the server loop for one client; runs until shutdown.
    `trainer` trains each round, as in `answer_broadcast`."""
    ledger = TrafficLedger()
    client_id = trainer.client_id
    losses: list[float] = []

    raw = encode_message(WireMessage(KIND_ROUND_ACK, 0, client_id))
    channel.send(raw)
    ledger.add_up(0, client_id, len(raw))

    expected = 1
    while True:
        raw = _recv(channel, ledger)
        msg = decode_message(raw)
        ledger.add_down(msg.round, client_id, len(raw))
        if msg.kind == KIND_SHUTDOWN:
            if msg.round != expected:
                raise ProtocolError(
                    f"shutdown for round {msg.round}, expected {expected}",
                    ledger=ledger,
                )
            break
        if msg.kind != KIND_GLOBAL_BROADCAST or msg.round != expected:
            raise ProtocolError(
                f"expected broadcast for round {expected}, got kind "
                f"{msg.kind} round {msg.round}",
                ledger=ledger,
            )
        with _ledgered(ledger):
            model, loss, update = answer_broadcast(msg, model, trainer, cfg)
        losses.append(loss)
        raw = encode_message(update)
        channel.send(raw)
        ledger.add_up(expected, client_id, len(raw))
        expected += 1

    return ClientResult(losses=losses, ledger=ledger)
