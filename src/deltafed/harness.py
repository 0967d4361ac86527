"""Experiment driver: federated, central, and local runs from one config.

The modes share one setup, one round loop and one result, and differ only
in who plays the rounds. `_setup` shuffles the training windows once into a
read-only copy, central's shard; client i's shard is rows i, i+K, ... of it,
as views. Every mode's rounds are `protocol.run_server` calls on this
thread (`_federate`): a federated run is one, of the server and its K
clients over channels; central's one client at the summed step budget, and
local client i on shard i, one after another, are each a federation of one
with no channel and no join. The clients come from
`workers.pooled_clients`, in a pool worker or in process. `_result` turns
what the rounds played into records and extras. Values still take the f32
wire casts, so K=1 local, central and K=1 federated runs are bitwise equal,
in a pool worker as in process. An error names who raised it:
`client <i>: ...` or `server: ...`.

Every round's model is scored off the round clock, alike in every lane
(one `run_server` call: the federation, central's client, or one local
client). On the pool, round t's is scored on the worker of the lane's last
client, right behind that client's round t+1 job, so the scoring overlaps
the server's encode, receive, decode and fold of round t+1 instead of
sitting between rounds on this thread; the final model's follows the
shutdown, beside its BLEU on this thread. Runs without a pool score on this
thread, under the server's name.

`compare_modes` reads the corpus once for all three modes. The federated
run goes first and alone, so its round times stay comparable; then central
runs on a helper thread beside local on the calling thread, each training
and scoring on a worker of its own.
"""

from __future__ import annotations

import json
import math
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .config import MODES, ExperimentConfig, override
from .data import corpus_tokens, partition_iid, round_robin, sequences_of, split_stream
from .lora import attach
from .metrics import RoundRecord, bleu, emit_report, format_rows, mode_totals
from .model import (
    LmConfig,
    LmModel,
    Windows,
    greedy_decode,
    init_model,
    perplexity_of,
)
from .optim import OptimizerConfig
from .protocol import (
    ClientTask,
    TrafficLedger,
    blame,
    check_client_ledger,
    prefixed,
    run_server,
)
from .transport import Hub, TcpListener, memory_pairs, tcp_connect
from .workers import WorkerClient, kill_lent, pooled_clients

BLEU_SAMPLES = 24


@dataclass
class ExperimentResult:
    model: LmModel | None  # final global; None in local mode (never aggregated)
    records: list[RoundRecord]
    extras: dict = field(default_factory=dict)
    client_models: list[LmModel] | None = None
    ledger: TrafficLedger | None = None
    csv_path: Path | None = None
    json_path: Path | None = None


@dataclass
class _Setup:
    val_ids: np.ndarray
    sequences: Windows  # the training windows, shuffled once, read-only: central's shard
    shards: list[Windows]  # shard i: rows i, i+K, ... of `sequences`, as views
    bleu_windows: Windows  # the held-out windows BLEU continues
    model: LmModel
    steps: dict[int, int]


def _setup(cfg: ExperimentConfig) -> _Setup:
    vocab, ids = corpus_tokens(cfg.resolved_corpus_path())
    train_ids, val_ids = split_stream(ids, cfg.split)
    sequences = partition_iid(sequences_of(train_ids, cfg.context), 1, cfg.seed)[0]  # the one shuffle
    shards = round_robin(sequences, cfg.clients)
    held_out = sequences_of(val_ids, cfg.context)
    bleu_windows = held_out.rows(np.flatnonzero(held_out.lengths >= 4)[:BLEU_SAMPLES])

    model = init_model(LmConfig(vocab.size, cfg.embed_dim, cfg.context), cfg.seed)
    if cfg.lora_rank >= 1:
        model = attach(
            model,
            cfg.targets(),
            cfg.lora_rank,
            cfg.lora_alpha,
            dropout_p=cfg.lora_dropout,
            seed=cfg.seed,
        )

    steps = {
        i: cfg.local_epochs * math.ceil(len(shard) / cfg.batch_size)
        for i, shard in enumerate(shards)
    }
    return _Setup(val_ids, sequences, shards, bleu_windows, model, steps)


def _client_task(cfg: ExperimentConfig, client_id: int, shard: Windows, steps: int) -> ClientTask:
    opt_cfg = OptimizerConfig(
        lr=cfg.lr,
        total_steps=cfg.rounds * steps,
        weight_decay=cfg.weight_decay,
        max_grad_norm=cfg.max_grad_norm,
        warmup_ratio=cfg.warmup_ratio,
    )
    return ClientTask(client_id, shard, opt_cfg, cfg.batch_size, steps, cfg.seed)


def bleu_of(model: LmModel, setup: _Setup) -> float:
    """Mean sentence BLEU of greedy continuations over held-out windows:
    each window's front half is the prefix, its back half the reference.
    The windows of one length are decoded as one batch."""
    windows = setup.bleu_windows
    if not len(windows):
        return 0.0
    scores = np.empty(len(windows))
    for length in windows.widths:
        rows = np.flatnonzero(windows.lengths == length)
        cut = length // 2
        x = windows.ids[rows, :length]
        hyps = greedy_decode(model, x[:, :cut], length - cut)
        for r, hyp, ref in zip(rows, hyps, x[:, cut:]):
            scores[r] = bleu(hyp, [ref])
    return float(np.mean(scores))


def _eval_only(cfg: ExperimentConfig, setup: _Setup) -> ExperimentResult:
    """A zero-round run of any mode: the initial model's metrics as round 0."""
    ppl = perplexity_of(setup.model, setup.val_ids)
    rec = RoundRecord(0, cfg.mode, float("nan"), ppl, 0, 0, 0)
    extras = {"bleu": bleu_of(setup.model, setup)}
    if cfg.mode == "local":
        return ExperimentResult(None, [rec], extras, client_models=[setup.model] * cfg.clients)
    return ExperimentResult(setup.model, [rec], extras)


def _tasks(cfg: ExperimentConfig, setup: _Setup) -> list[ClientTask]:
    """Central's one client on the whole shuffle at the summed step budget,
    or client i on shard i."""
    if cfg.mode == "central":
        return [_client_task(cfg, 0, setup.sequences, sum(setup.steps.values()))]
    return [_client_task(cfg, i, shard, setup.steps[i]) for i, shard in enumerate(setup.shards)]


# -- every mode's rounds: federations -----------------------------------------


@contextmanager
def _channels(cfg: ExperimentConfig):
    """-> (server ends, client ends), index-aligned; central's or a local
    client's one end is None, with no server end. Each TCP client is
    accepted before the next connects, so K may exceed the listen backlog."""
    if cfg.mode != "federated":
        yield [], [None]
        return
    if cfg.transport == "memory":
        yield memory_pairs(cfg.clients)
        return
    server_ends, client_ends = [], []
    listener, hub = TcpListener(cfg.tcp_host, cfg.tcp_port), Hub()
    try:
        for i in range(cfg.clients):
            with blame(f"client {i}"):
                client_ends.append(tcp_connect(listener.host, listener.port, hub))
            with blame("server"):
                server_ends.append(listener.accept(hub))
        yield server_ends, client_ends
    finally:
        listener.close()
        for end in server_ends + client_ends:
            end.close()


def _federate(cfg: ExperimentConfig, setup: _Setup, tasks: list[ClientTask]) -> tuple:
    """The server and `tasks`' clients, all driven by `run_server` on this
    thread; -> (final global model, its BLEU, each client's losses, each
    round's perplexity, each round's wall ms, the server's ledger). Each
    round's global model is scored off the round clock and only the score
    is kept: on the pool, round t's score is read as round t+1 ends, and
    the final model's once this thread has worked out its BLEU; without a
    pool each model is scored here as its round ends. A scoring error fails
    the run as `server: round <t>: ...`."""
    counts = {i: len(shard) for i, shard in enumerate(setup.shards)}  # a lone client's weight is 1
    ppls: list[float] = []
    # the pool, if any, forks before a channel exists
    with pooled_clients(setup.model, tasks, cfg) as clients, _channels(cfg) as (server_ends, client_ends):
        scorer = clients[-1] if isinstance(clients[-1], WorkerClient) else None

        def score(t: int, model: LmModel) -> None:
            if scorer is None:
                with prefixed(f"round {t}"):
                    ppls.append(perplexity_of(model, setup.val_ids))
                return
            if t > 1:
                with prefixed(f"round {t - 1}"):
                    ppls.append(scorer.score())
            scorer.hand(model, setup.val_ids)

        with blame("server"):
            model, ledger = run_server(
                setup.model, server_ends, cfg, counts, on_round=score,
                clients=list(zip(client_ends, clients)),
            )
        bleu = bleu_of(model, setup)
        if scorer is not None:
            with blame("server"), prefixed(f"round {cfg.rounds}"):
                ppls.append(scorer.score())
    for client in clients:
        check_client_ledger(ledger, client.id, client.ledger)
    walls = [ledger.wall_ms(t) for t in range(1, cfg.rounds + 1)]
    return model, bleu, [client.losses for client in clients], ppls, walls, ledger


def _play(cfg: ExperimentConfig, setup: _Setup) -> tuple:
    """cfg's mode, as federations; -> what `_result` takes. A federated run
    is one of K clients. Central and local mode are lone clients, one after
    another, each a federation of one with no channel and its own scores:
    central is the exact K=1 federated trajectory, and local client i plays
    federated client i's rounds on shard i. Their bytes stay off the
    records, and a round's wall sums the clients'."""
    tasks = _tasks(cfg, setup)
    lanes = [tasks] if cfg.mode == "federated" else [[task] for task in tasks]
    models, bleus, losses, ppls, walls, ledgers = zip(*(_federate(cfg, setup, lane) for lane in lanes))
    ledger = ledgers[0] if cfg.mode == "federated" else None
    return list(models), bleus, np.concatenate(losses), np.array(ppls), np.sum(walls, axis=0), ledger


# -- one result for every mode -----------------------------------------------


def _result(
    cfg: ExperimentConfig, models: list[LmModel], bleus: list[float], losses: np.ndarray,
    ppls: np.ndarray, walls, ledger: TrafficLedger | None,
) -> ExperimentResult:
    """Every mode's records and extras from what its rounds played: the
    final models (the global one, or each lone client's) and their BLEU,
    each client's training losses and each model's perplexities as (clients
    or models, rounds) arrays, each round's wall ms, and the server's ledger
    (None for lone clients). A record averages the losses and the
    perplexities and carries the ledger's bytes; the BLEU extra averages the
    models'."""
    records = [
        RoundRecord(
            t + 1,
            cfg.mode,
            float(losses[:, t].mean()),
            float(ppls[:, t].mean()),
            int(walls[t]),
            ledger.uplink_bytes(t + 1) if ledger is not None else 0,
            ledger.downlink_bytes(t + 1) if ledger is not None else 0,
        )
        for t in range(cfg.rounds)
    ]
    extras = {"bleu": float(np.mean(bleus))}
    if ledger is not None:
        extras["overhead_bytes"] = {
            "join_uplink": ledger.uplink_bytes(0),
            "shutdown_downlink": ledger.downlink_bytes(cfg.rounds + 1),
        }
    if cfg.mode != "local":
        return ExperimentResult(models[0], records, extras, ledger=ledger)
    extras["clients"] = {
        str(i): {
            "final_train_loss": float(losses[i, -1]),
            "train_loss": [float(x) for x in losses[i]],
            "perplexity": [float(x) for x in ppls[i]],
        }
        for i in range(cfg.clients)
    }
    return ExperimentResult(None, records, extras, client_models=models)


# -- entry points ------------------------------------------------------------


def run_experiment(
    cfg: ExperimentConfig, report: bool = True, setup: _Setup | None = None
) -> ExperimentResult:
    """Run cfg's mode; `setup`, if given, is `_setup(cfg)` already made."""
    setup = setup or _setup(cfg)
    result = _result(cfg, *_play(cfg, setup)) if cfg.rounds else _eval_only(cfg, setup)
    if report:
        extras = dict(result.extras)
        extras["config"] = asdict(cfg)
        result.csv_path, result.json_path = emit_report(
            result.records, cfg.output_dir, summary_extra=extras
        )
    return result


COMPARE_COLUMNS = ("round", "mode", "train_loss", "perplexity", "uplink_bytes", "downlink_bytes")


def compare_modes(cfg: ExperimentConfig, out_dir: str | Path | None = None):
    """Run all three modes on identical data and seed; -> (csv, json) paths.

    The joint CSV carries no wall times, so a repeated run with the same
    config and seed reproduces it byte for byte on the memory transport.
    The corpus is read once. Federated runs first and alone; then central
    runs on a helper thread beside local on this one. A failure in either
    lane is raised, prefixed with its mode, once both have ended. A
    KeyboardInterrupt here kills the workers lent to central, so its lane
    fails at its next read and the interrupt is raised at once; a central
    lane that plays in process (no pool) still runs to its end first.
    """
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    setup = _setup(cfg)
    results: dict[str, ExperimentResult] = {}
    failures: list[Exception] = []  # in the order they happened

    def run(mode: str) -> None:
        try:
            with prefixed(mode):
                results[mode] = run_experiment(override(cfg, mode=mode), report=False, setup=setup)
        except Exception as e:
            failures.append(e)

    run("federated")  # the pool grows here, before the helper thread starts
    if failures:
        raise failures[0]
    helper = threading.Thread(target=run, args=("central",), name="central")
    helper.start()
    try:
        run("local")
        helper.join()
    except BaseException:  # ^C, say: central's pooled lane ends at its next read
        kill_lent()
        helper.join()
        raise
    if failures:
        raise failures[0]
    records = [rec for mode in MODES for rec in results[mode].records]

    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "compare.csv"
    csv_path.write_text("\n".join(format_rows(records, COMPARE_COLUMNS)) + "\n")

    modes = mode_totals(records)
    for mode in MODES:
        modes[mode]["bleu"] = results[mode].extras["bleu"]
    summary = {"config": asdict(cfg), "modes": modes}
    json_path = out / "compare_summary.json"
    json_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return csv_path, json_path
