"""Experiment driver: federated, central, and local runs from one config.

The three modes share corpus ingestion, partitioning, and the per-round step
budget so their loss curves sit on the same axis. Central mode is not a
shortcut implementation: it runs the protocol's own round functions as
client 0, with no channel and no thread, on the whole training split at the
summed step budget. Every value still takes the f32 wire casts, so a K=1
federated run and a central run produce bitwise-identical parameters.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, override
from .data import corpus_tokens, partition_iid, sequences_of, split_stream
from .lora import attach
from .metrics import MODES, RoundRecord, bleu, emit_report, format_rows, mode_totals
from .model import (
    LmConfig,
    LmModel,
    Vocab,
    greedy_decode,
    init_model,
    perplexity_of,
)
from .optim import OptimizerConfig, init_state, local_train_round
from .protocol import (
    ClientTask,
    ProtocolConfig,
    TrafficLedger,
    answer_broadcast,
    broadcast,
    fold_updates,
    run_client,
    run_server,
)
from .transport import TcpListener, memory_pairs, tcp_connect

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
    val_ids: list[int]
    sequences: list[list[int]]
    shards: list[list[list[int]]]
    model: LmModel
    counts: dict[int, int]
    steps: dict[int, int]


def _setup(cfg: ExperimentConfig) -> _Setup:
    vocab, ids = corpus_tokens(cfg.resolved_corpus_path())
    train_ids, val_ids = split_stream(list(ids), cfg.split)
    sequences = sequences_of(train_ids, cfg.context)
    shards = partition_iid(sequences, cfg.clients, cfg.seed)

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
    return _Setup(vocab, val_ids, sequences, shards, model, counts, steps)


def _protocol_config(cfg: ExperimentConfig) -> ProtocolConfig:
    return ProtocolConfig(
        rounds=cfg.rounds,
        aggregation=cfg.aggregation,
        delta_form=cfg.delta_form,
        delta_weighting=cfg.delta_weighting,
        quantize_payload=cfg.quantize_payload,
    )


def _client_task(cfg: ExperimentConfig, client_id: int, shard: list, steps: int) -> ClientTask:
    opt_cfg = OptimizerConfig(
        lr=cfg.lr,
        total_steps=cfg.rounds * steps,
        weight_decay=cfg.weight_decay,
        max_grad_norm=cfg.max_grad_norm,
        warmup_ratio=cfg.warmup_ratio,
    )
    return ClientTask(client_id, shard, opt_cfg, cfg.batch_size, steps, cfg.seed)


def _eval_ppl(model: LmModel, setup: _Setup, cfg: ExperimentConfig) -> float:
    return perplexity_of(model, setup.val_ids, cfg.context)


def bleu_of(model: LmModel, setup: _Setup, cfg: ExperimentConfig) -> float:
    """Mean sentence BLEU of greedy continuations over held-out windows."""
    windows = [
        w for w in sequences_of(setup.val_ids, cfg.context) if len(w) >= 4
    ][:BLEU_SAMPLES]
    if not windows:
        return 0.0
    scores = []
    for w in windows:
        cut = len(w) // 2
        prefix, ref = w[:cut], [int(x) for x in w[cut:]]
        hyp = [int(x) for x in greedy_decode(model, prefix, len(ref))]
        scores.append(bleu(hyp, [ref]))
    return float(np.mean(scores))


def _eval_only_result(mode: str, setup: _Setup, cfg: ExperimentConfig) -> ExperimentResult:
    rec = RoundRecord(0, mode, float("nan"), _eval_ppl(setup.model, setup, cfg), 0, 0, 0)
    extras = {"bleu": bleu_of(setup.model, setup, cfg)}
    if mode == "local":
        return ExperimentResult(None, [rec], extras, client_models=[setup.model] * cfg.clients)
    return ExperimentResult(setup.model, [rec], extras)


# -- federated ---------------------------------------------------------------


def _open_channels(cfg: ExperimentConfig):
    """-> (acquire_server_channels, per-client connect fns, cleanup)."""
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


def run_federated(cfg: ExperimentConfig, setup: _Setup | None = None) -> ExperimentResult:
    setup = setup or _setup(cfg)
    if cfg.rounds == 0:
        return _eval_only_result("federated", setup, cfg)

    pcfg = _protocol_config(cfg)
    tasks = [
        _client_task(cfg, i, setup.shards[i], setup.steps[i])
        for i in range(cfg.clients)
    ]

    acquire, connectors, cleanup = _open_channels(cfg)
    results: list = [None] * cfg.clients
    failures: list = [None] * cfg.clients

    def client_main(i: int) -> None:
        try:
            channel = connectors[i]()
            try:
                results[i] = run_client(channel, setup.model, tasks[i], pcfg)
            finally:
                if hasattr(channel, "close"):
                    channel.close()
        except Exception as e:  # surfaced after join
            failures[i] = e

    threads = [
        threading.Thread(target=client_main, args=(i,), name=f"client-{i}")
        for i in range(cfg.clients)
    ]
    for th in threads:
        th.start()

    snapshots: dict[int, LmModel] = {}
    try:
        model, ledger = run_server(
            setup.model,
            acquire(),
            pcfg,
            sample_counts=setup.counts,
            on_round=lambda t, m: snapshots.__setitem__(t, m),
        )
    finally:
        for th in threads:
            th.join()
        cleanup()
    for e in failures:
        if e is not None:
            raise e

    records = []
    for t in range(1, cfg.rounds + 1):
        loss = float(np.mean([results[i].losses[t - 1] for i in range(cfg.clients)]))
        records.append(
            RoundRecord(
                t,
                "federated",
                loss,
                _eval_ppl(snapshots[t], setup, cfg),
                int(ledger.wall_ms(t)),
                ledger.uplink_bytes(t),
                ledger.downlink_bytes(t),
            )
        )
    extras = {
        "bleu": bleu_of(model, setup, cfg),
        "overhead_bytes": {
            "join_uplink": ledger.uplink_bytes(0),
            "shutdown_downlink": ledger.downlink_bytes(cfg.rounds + 1),
        },
    }
    return ExperimentResult(model, records, extras, ledger=ledger)


# -- central -----------------------------------------------------------------


def run_central(cfg: ExperimentConfig, setup: _Setup | None = None) -> ExperimentResult:
    """One trainer on the full training split at the federated step budget.

    The rounds are the federation's own, played as client 0 without a
    channel, so central is the exact K=1 trajectory rather than an
    approximation of it. Its records carry no bytes.
    """
    setup = setup or _setup(cfg)
    if cfg.rounds == 0:
        return _eval_only_result("central", setup, cfg)

    pcfg = _protocol_config(cfg)
    shard = partition_iid(setup.sequences, 1, cfg.seed)[0]
    task = _client_task(cfg, 0, shard, sum(setup.steps.values()))
    counts = {0: sum(setup.counts.values())}
    rng = task.rng()
    model = worker = setup.model
    state = init_state(worker.params)
    records = []

    for t in range(1, cfg.rounds + 1):
        start = time.perf_counter()
        worker, state, loss, update = answer_broadcast(
            broadcast(model, t, pcfg), worker, state, task, pcfg, rng
        )
        model = fold_updates(model, t, [(0, update)], pcfg, counts)
        wall_ms = int((time.perf_counter() - start) * 1000.0)
        records.append(
            RoundRecord(t, "central", loss, _eval_ppl(model, setup, cfg), wall_ms, 0, 0)
        )

    extras = {"bleu": bleu_of(model, setup, cfg)}
    return ExperimentResult(model, records, extras)


# -- local -------------------------------------------------------------------


def run_local(cfg: ExperimentConfig, setup: _Setup | None = None) -> ExperimentResult:
    """K trainers that never communicate; records average their curves."""
    setup = setup or _setup(cfg)
    if cfg.rounds == 0:
        return _eval_only_result("local", setup, cfg)

    losses = np.zeros((cfg.clients, cfg.rounds))
    ppls = np.zeros((cfg.clients, cfg.rounds))
    walls = np.zeros((cfg.clients, cfg.rounds))
    models: list[LmModel] = []

    for i in range(cfg.clients):
        task = _client_task(cfg, i, setup.shards[i], setup.steps[i])
        rng = task.rng()
        worker = setup.model
        state = init_state(worker.params)
        for t in range(cfg.rounds):
            start = time.perf_counter()
            worker, state, loss = local_train_round(
                worker,
                state,
                task.shard,
                task.opt_cfg,
                rng,
                batch_size=task.batch_size,
                steps=task.steps_per_round,
            )
            walls[i, t] = (time.perf_counter() - start) * 1000.0
            losses[i, t] = loss
            ppls[i, t] = _eval_ppl(worker, setup, cfg)
        models.append(worker)

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
        "bleu": float(np.mean([bleu_of(m, setup, cfg) for m in models])),
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


def run_experiment(cfg: ExperimentConfig, report: bool = True) -> ExperimentResult:
    result = _RUNNERS[cfg.mode](cfg)
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
    """
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    results = {
        mode: run_experiment(override(cfg, mode=mode), report=False)
        for mode in MODES
    }
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
