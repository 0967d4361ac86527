"""Experiment driver: federated, central, and local runs from one config.

The three modes share corpus ingestion, partitioning, and the per-round step
budget so their loss curves sit on the same axis, and one round: the
protocol's own round functions. Central and local mode play a federation of
one client with no channel and no thread (`_alone`): central on the whole
training split at the summed step budget, local client i on shard i, so it
honours `delta_form` and `quantize_payload`. Every value still takes the f32
wire casts, so K=1 local, central and K=1 federated runs are bitwise equal.
Every mode gets its trainers from `workers.client_trainers`: federated
clients train in the pool's worker processes when there are two or more
clients and cores, a lone client on an idle worker if the pool has one, all
with the same results as in process.

`compare_modes` reads the corpus once for all three modes. The federated
run goes first and alone, so its round times stay comparable; then central
runs on a helper thread beside local on the calling thread, each training
on a worker of its own.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .config import MODES, ExperimentConfig, override
from .data import corpus_tokens, partition_iid, sequences_of, split_stream
from .lora import attach
from .metrics import RoundRecord, bleu, emit_report, format_rows, mode_totals
from .model import (
    LmConfig,
    LmModel,
    Vocab,
    Windows,
    greedy_decode,
    init_model,
    perplexity_of,
)
from .optim import OptimizerConfig
from .protocol import (
    ClientTask,
    TrafficLedger,
    answer_broadcast,
    broadcast,
    check_client_ledger,
    fold_updates,
    run_client,
    run_server,
)
from .transport import TcpListener, memory_pairs, tcp_connect
from .workers import client_trainers

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
    vocab: Vocab
    val_ids: np.ndarray
    sequences: Windows
    shards: list[Windows]
    bleu_windows: Windows  # the held-out windows BLEU continues
    model: LmModel
    counts: dict[int, int]
    steps: dict[int, int]


def _setup(cfg: ExperimentConfig) -> _Setup:
    vocab, ids = corpus_tokens(cfg.resolved_corpus_path())
    train_ids, val_ids = split_stream(ids, cfg.split)
    sequences = sequences_of(train_ids, cfg.context)
    shards = partition_iid(sequences, cfg.clients, cfg.seed)
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

    counts = {i: len(shards[i]) for i in range(cfg.clients)}
    steps = {
        i: cfg.local_epochs * math.ceil(counts[i] / cfg.batch_size)
        for i in range(cfg.clients)
    }
    return _Setup(vocab, val_ids, sequences, shards, bleu_windows, model, counts, steps)


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


def _eval_only(cfg: ExperimentConfig, setup: _Setup | None = None) -> ExperimentResult:
    """A zero-round run of any mode: the initial model's metrics as round 0."""
    setup = setup or _setup(cfg)
    ppl = perplexity_of(setup.model, setup.val_ids)
    rec = RoundRecord(0, cfg.mode, float("nan"), ppl, 0, 0, 0)
    extras = {"bleu": bleu_of(setup.model, setup)}
    if cfg.mode == "local":
        return ExperimentResult(None, [rec], extras, client_models=[setup.model] * cfg.clients)
    return ExperimentResult(setup.model, [rec], extras)


# -- federated ---------------------------------------------------------------


def _open_channels(cfg: ExperimentConfig):
    """-> (acquire_server_channels, per-client connect fns, stop_listening).

    `stop_listening` may run more than once and from any thread; on TCP it
    ends a pending accept at once."""
    if cfg.transport == "memory":
        server_sides, client_sides = memory_pairs(cfg.clients)
        return (
            lambda: server_sides,
            [lambda i=i: client_sides[i] for i in range(cfg.clients)],
            lambda: None,
        )
    listener = TcpListener(cfg.tcp_host, cfg.tcp_port)
    return (
        lambda: listener.accept(cfg.clients),
        [
            lambda: tcp_connect(listener.host, listener.port)
            for _ in range(cfg.clients)
        ],
        listener.close,
    )


def _federate(cfg: ExperimentConfig, setup: _Setup, trainers: list):
    """Server on this thread, client i on thread `client-<i>` training with
    trainers[i]; -> (client results, final model, server ledger, per-round
    perplexities).

    Each round's global model is scored as its round ends, off the round
    clock, and only the score is kept; a scoring error fails the run there.
    """
    acquire, connectors, stop_listening = _open_channels(cfg)
    results: list = [None] * cfg.clients
    # (who, exception) in the order they happened; list.append is atomic
    failures: list[tuple[str, Exception]] = []

    def client_main(i: int) -> None:
        channel = None
        try:
            channel = connectors[i]()
            results[i] = run_client(channel, setup.model, trainers[i], cfg)
        except Exception as e:
            failures.append((f"client {i}", e))  # before the close wakes the server
            stop_listening()  # a server still in accept gives up now
        finally:
            if channel is not None:
                channel.close()

    threads = [
        threading.Thread(target=client_main, args=(i,), name=f"client-{i}")
        for i in range(cfg.clients)
    ]
    for th in threads:
        th.start()

    ppls: list[float] = []
    channels = []
    try:
        channels = acquire()
        model, ledger = run_server(
            setup.model,
            channels,
            cfg,
            sample_counts=setup.counts,
            on_round=lambda t, m: ppls.append(perplexity_of(m, setup.val_ids)),
        )
    except Exception as e:
        failures.append(("server", e))  # before the close wakes the clients
    finally:
        for channel in channels:
            channel.close()  # a client still waiting sees the end at once
        for th in threads:
            th.join()
        stop_listening()
    # later failures are peers seeing a channel close
    _raise_first(failures)
    return results, model, ledger, ppls


def _raise_first(failures: list[tuple[str, Exception]]) -> None:
    """Raise the first (who, exception), the root cause, prefixed with who.
    It keeps its class, attributes and traceback."""
    if failures:
        who, e = failures[0]
        e.args = (f"{who}: {e}", *e.args[1:])
        raise e


def run_federated(cfg: ExperimentConfig, setup: _Setup | None = None) -> ExperimentResult:
    setup = setup or _setup(cfg)
    tasks = [
        _client_task(cfg, i, setup.shards[i], setup.steps[i])
        for i in range(cfg.clients)
    ]
    # the pool, if any, forks before a channel or a thread exists
    with client_trainers(tasks) as trainers:
        results, model, ledger, ppls = _federate(cfg, setup, trainers)
    for i, result in enumerate(results):
        check_client_ledger(ledger, i, result.ledger)

    records = [
        RoundRecord(
            t,
            "federated",
            float(np.mean([result.losses[t - 1] for result in results])),
            ppl,
            int(ledger.wall_ms(t)),
            ledger.uplink_bytes(t),
            ledger.downlink_bytes(t),
        )
        for t, ppl in enumerate(ppls, start=1)
    ]
    extras = {
        "bleu": bleu_of(model, setup),
        "overhead_bytes": {
            "join_uplink": ledger.uplink_bytes(0),
            "shutdown_downlink": ledger.downlink_bytes(cfg.rounds + 1),
        },
    }
    return ExperimentResult(model, records, extras, ledger=ledger)


# -- central and local: federations of one client ----------------------------


def _alone(cfg: ExperimentConfig, setup: _Setup, trainer, count: int):
    """A federation of one client with no channel; per round yields
    (train loss, global model, wall ms), timing the round alone."""
    counts = {trainer.client_id: count}
    model = local = setup.model
    for t in range(1, cfg.rounds + 1):
        start = time.perf_counter()
        local, loss, update = answer_broadcast(
            broadcast(model, t, cfg), local, trainer, cfg
        )
        model = fold_updates(model, t, [(trainer.client_id, update)], cfg, counts)
        yield loss, model, (time.perf_counter() - start) * 1000.0


def run_central(cfg: ExperimentConfig, setup: _Setup | None = None) -> ExperimentResult:
    """One trainer on the full training split at the federated step budget.

    The rounds are the federation's own, played as client 0 without a
    channel, so central is the exact K=1 trajectory rather than an
    approximation of it. Its records carry no bytes.
    """
    setup = setup or _setup(cfg)
    shard = partition_iid(setup.sequences, 1, cfg.seed)[0]
    task = _client_task(cfg, 0, shard, sum(setup.steps.values()))
    records = []
    with client_trainers([task]) as (trainer,):
        rounds = _alone(cfg, setup, trainer, sum(setup.counts.values()))
        for t, (loss, model, wall_ms) in enumerate(rounds, start=1):
            ppl = perplexity_of(model, setup.val_ids)
            records.append(RoundRecord(t, "central", loss, ppl, int(wall_ms), 0, 0))
    return ExperimentResult(model, records, {"bleu": bleu_of(model, setup)})


def run_local(cfg: ExperimentConfig, setup: _Setup | None = None) -> ExperimentResult:
    """K trainers that never communicate; records average their curves.
    Client i plays federated client i's rounds as a federation of one."""
    setup = setup or _setup(cfg)
    curves, models = [], []
    for i in range(cfg.clients):
        task = _client_task(cfg, i, setup.shards[i], setup.steps[i])
        curve = []
        # the clients take turns, each on the worker it borrows
        with client_trainers([task]) as (trainer,):
            for loss, model, wall_ms in _alone(cfg, setup, trainer, setup.counts[i]):
                curve.append((loss, perplexity_of(model, setup.val_ids), wall_ms))
        curves.append(curve)
        models.append(model)
    losses, ppls, walls = np.moveaxis(np.array(curves), 2, 0)  # each (K, rounds)

    records = [
        RoundRecord(
            t + 1,
            "local",
            float(losses[:, t].mean()),
            float(ppls[:, t].mean()),
            int(walls[:, t].sum()),  # clients run sequentially here
            0,
            0,
        )
        for t in range(cfg.rounds)
    ]
    extras = {
        "bleu": float(np.mean([bleu_of(m, setup) for m in models])),
        "clients": {
            str(i): {
                "final_train_loss": float(losses[i, -1]),
                "train_loss": [float(x) for x in losses[i]],
                "perplexity": [float(x) for x in ppls[i]],
            }
            for i in range(cfg.clients)
        },
    }
    return ExperimentResult(None, records, extras, client_models=models)


# -- entry points ------------------------------------------------------------

_RUNNERS = {"federated": run_federated, "central": run_central, "local": run_local}


def run_experiment(
    cfg: ExperimentConfig, report: bool = True, setup: _Setup | None = None
) -> ExperimentResult:
    """Run cfg's mode; `setup`, if given, is `_setup(cfg)` already made."""
    runner = _eval_only if cfg.rounds == 0 else _RUNNERS[cfg.mode]
    result = runner(cfg, setup)
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
    lane is raised, prefixed with its mode, once both have ended.
    """
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    setup = _setup(cfg)
    results: dict[str, ExperimentResult] = {}
    failures: list[tuple[str, Exception]] = []

    def run(mode: str) -> None:
        try:
            mode_cfg = override(cfg, mode=mode)
            results[mode] = run_experiment(mode_cfg, report=False, setup=setup)
        except Exception as e:
            failures.append((mode, e))

    run("federated")  # the pool grows here, before the helper thread starts
    _raise_first(failures)
    helper = threading.Thread(target=run, args=("central",), name="central")
    helper.start()
    try:
        run("local")
    finally:
        helper.join()
    _raise_first(failures)
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
