"""The benchmark's workloads, one timed repetition of each, and the output gates.

Every repetition drives deltafed through ``harness.run_experiment`` or
``harness.compare_modes`` only. The load is a closed loop from one process:
K client threads, each with one channel, wait for the broadcast, train their
local steps and reply; the server waits for all K replies.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import deltafed.harness as harness
from deltafed import ExperimentConfig
from deltafed.data import corpus_tokens, partition_iid, sequences_of, split_stream
from deltafed.metrics import MODES
from deltafed.wire import HEADER_LEN, serialize_params, serialized_size

from tracer import ROUND_START_SPANS, Tracer

# Two client threads and two TCP connections keep the load within the two
# cores of the machine the sizes below were chosen on.
K = 2

# wide-q4-tcp trains on 400 bytes, which leave each client 1-2 optimizer
# steps per round, so the codec, wire and aggregation dominate rather than
# the model. The other 600 bytes are held out, enough that perplexity varies
# across seeds by a few percent rather than by tens.
WIDE_CORPUS_BYTES = 1000
WIDE_SPLIT = 0.4


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: int        # rounds per experiment in a timed run
    quick_rounds: int  # rounds per experiment in --quick
    compare: bool      # compare_modes (three modes) instead of run_experiment
    settings: dict     # ExperimentConfig fields besides seed, rounds, paths


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's headline run: criterion-4 hyper-parameters, LoRA
        # adapters, f32 payloads. The training step does nearly all the work.
        Workload(
            "fed-lora", 3, 2, False,
            {"clients": K, "lr": 0.01, "batch_size": 16, "lora_rank": 4},
        ),
        # Cross-device regime: every parameter trains, uplinks are 4-bit,
        # each round is 1-2 steps on a tiny generated corpus, over TCP.
        Workload(
            "wide-q4-tcp", 40, 6, False,
            {
                "clients": K,
                "split": WIDE_SPLIT,
                "embed_dim": 256,
                "lora_rank": 0,
                "quantize_payload": True,
                "transport": "tcp",
            },
        ),
        # The only workload that runs central and local mode, fedavg and
        # full-model uplinks, and writes the compare CSV.
        Workload(
            "compare-fedavg", 2, 2, True,
            {"clients": K, "aggregation": "fedavg", "lora_rank": 0, "batch_size": 16},
        ),
    )
}


def make_config(wl: Workload, seed: int, rounds: int, work_dir: Path, make_corpus) -> ExperimentConfig:
    """The workload's config; wide-q4-tcp's corpus is generated from the seed."""
    settings = dict(wl.settings)
    if wl.name == "wide-q4-tcp":
        corpus = work_dir / "corpus.txt"
        corpus.write_text(make_corpus(WIDE_CORPUS_BYTES, seed), encoding="ascii")
        settings["corpus_path"] = str(corpus)
    return ExperimentConfig(
        seed=seed, rounds=rounds, output_dir=str(work_dir / "report"), **settings
    )


def modes_of(wl: Workload) -> tuple[str, ...]:
    return MODES if wl.compare else ("federated",)


def steps_per_experiment(cfg: ExperimentConfig, modes: tuple[str, ...]) -> int:
    """Optimizer steps one experiment runs, summed over clients and modes.

    Every mode trains the same per-client budget, local_epochs passes over
    each IID shard per round; central trains their sum.
    """
    _, ids = corpus_tokens(cfg.resolved_corpus_path())
    train, _ = split_stream(list(ids), cfg.split)
    shards = partition_iid(sequences_of(train, cfg.context), cfg.clients, cfg.seed)
    per_round = sum(cfg.local_epochs * math.ceil(len(s) / cfg.batch_size) for s in shards)
    return len(modes) * cfg.rounds * per_round


@dataclass
class Rep:
    """One experiment (or one compare_modes call) and what was checked on it."""

    traced: bool
    rounds_attempted: int
    failed_rounds: set = field(default_factory=set)  # (mode, round)
    problems: list = field(default_factory=list)
    wall_s: float = 0.0
    setup_s: float = 0.0
    run_s: float = 0.0
    round_ms: list = field(default_factory=list)
    uplink_bytes_per_round: float = 0.0
    downlink_bytes_per_round: float = 0.0
    final_loss: float = math.nan
    final_ppl: float = math.nan
    bleu: float = math.nan
    digest: str = ""
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    modes: dict = field(default_factory=dict)  # span id -> mode

    def fail(self, mode: str, rnd: int, message: str) -> None:
        self.failed_rounds.add((mode, rnd))
        self.problems.append(f"{mode} round {rnd}: {message}")

    def fail_all(self, cfg: ExperimentConfig, modes, message: str) -> None:
        for mode in modes:
            for rnd in range(1, cfg.rounds + 1):
                self.failed_rounds.add((mode, rnd))
        self.problems.append(message)


def run_rep(wl: Workload, cfg: ExperimentConfig, tracer: Tracer, traced: bool, work_dir: Path) -> Rep:
    modes = modes_of(wl)
    rep = Rep(traced=traced, rounds_attempted=cfg.rounds * len(modes))
    tracer.reset()
    t0 = time.perf_counter()
    try:
        if wl.compare:
            csv_path, _ = harness.compare_modes(cfg, work_dir / "compare")
        else:
            harness.run_experiment(cfg)
    except Exception as e:  # a raising round counts as failed, the run goes on
        rep.fail_all(cfg, modes, "".join(traceback.format_exception(e)).strip())
        return rep
    rep.wall_s = time.perf_counter() - t0
    rep.spans = tracer.spans
    rep.counts = tracer.counts()

    results = {}
    for sid, arg, result in tracer.kept:
        results[arg.mode] = result
        rep.modes[sid] = arg.mode
    missing = [m for m in modes if m not in results]
    if missing:
        rep.fail_all(cfg, modes, f"no result for modes {missing}")
        return rep

    rep.setup_s = _setup_seconds(rep, cfg, modes)
    rep.run_s = rep.wall_s - rep.setup_s

    fed = results["federated"]
    ledger = fed.ledger
    rep.round_ms = [ledger.wall_ms(t) for t in range(1, cfg.rounds + 1)]
    rep.uplink_bytes_per_round = ledger.uplink_bytes() / cfg.rounds
    rep.downlink_bytes_per_round = ledger.downlink_bytes() / cfg.rounds
    rep.final_loss = fed.records[-1].train_loss
    rep.final_ppl = fed.records[-1].perplexity
    rep.bleu = fed.extras["bleu"]

    check_bytes(rep, cfg, ledger, fed.model.params)
    if traced:
        sent = sum(s.size for s in rep.spans if s.name == "transport.send")
        if sent != ledger.total_bytes():
            rep.fail("federated", cfg.rounds, f"transport sent {sent} B, ledger holds {ledger.total_bytes()} B")
    for mode in modes:
        check_quality(rep, mode, results[mode])
    digest = hashlib.sha256()
    digest.update(serialize_params(fed.model.params, "all"))
    digest.update(json.dumps(ledger.byte_table(), sort_keys=True).encode())
    if wl.compare:
        csv = csv_path.read_bytes()
        check_compare_csv(rep, cfg, csv.decode(), ledger)
        digest.update(csv)
        digest.update(serialize_params(results["central"].model.params, "all"))
    rep.digest = digest.hexdigest()
    return rep


def _setup_seconds(rep: Rep, cfg: ExperimentConfig, modes) -> float:
    """Per mode, from its run_experiment call to the start of its round 1."""
    total = 0.0
    experiments = [s for s in rep.spans if s.id in rep.modes]
    for exp in experiments:
        starts = [
            s.start
            for s in rep.spans
            if s.name in ROUND_START_SPANS and exp.start <= s.start <= exp.end
        ]
        if not starts:
            rep.fail_all(cfg, modes, f"no round-1 start seen in {rep.modes[exp.id]} mode")
            continue
        total += min(starts) - exp.start
    return total


def expected_message_bytes(cfg: ExperimentConfig, params) -> dict[int, tuple[int, int]]:
    """round -> (downlink, uplink) bytes of each client's message, per wire.py.

    Round 0 is the join ack, round T+1 the shutdown; 0 means no message.
    """
    if cfg.aggregation == "gradualdiff" and cfg.delta_form != "factors":
        raise ValueError("the benchmark's byte gate covers factor deltas only")
    full = HEADER_LEN + serialized_size(params, "all")
    if cfg.aggregation == "fedavg":
        broadcast, update = full, full
    else:
        broadcast = HEADER_LEN + serialized_size(params, "trainable")
        update = HEADER_LEN + serialized_size(
            params, "trainable", quantize_payload=cfg.quantize_payload
        )
    out = {0: (0, HEADER_LEN), 1: (full, update), cfg.rounds + 1: (HEADER_LEN, 0)}
    for t in range(2, cfg.rounds + 1):
        out[t] = (broadcast, update)
    return out


def check_bytes(rep: Rep, cfg: ExperimentConfig, ledger, params) -> None:
    """Byte-accounting gate: every ledgered message matches the wire layout."""
    expected = expected_message_bytes(cfg, params)
    table = ledger.byte_table()
    if sorted(table) != sorted(expected):
        rep.fail("federated", cfg.rounds, f"ledger rounds {sorted(table)}")
    for rnd, (down, up) in expected.items():
        slot = table.get(rnd, {})
        for cid in range(cfg.clients):
            for direction, want in (("down", down), ("up", up)):
                got = slot.get(direction, {}).get(cid, 0)
                msgs = slot.get(f"{direction}_msgs", {}).get(cid, 0)
                if got != want or msgs != (1 if want else 0):
                    rep.fail(
                        "federated",
                        min(max(rnd, 1), cfg.rounds),
                        f"client {cid} {direction} {got} B in {msgs} msgs, "
                        f"wire layout gives {want} B",
                    )


def check_quality(rep: Rep, mode: str, result) -> None:
    """Finite metrics, and training lowered the loss below round 1's."""
    recs = result.records
    last = recs[-1]
    for rec in recs:
        if not (math.isfinite(rec.train_loss) and math.isfinite(rec.perplexity)):
            rep.fail(mode, rec.round, f"loss {rec.train_loss} perplexity {rec.perplexity}")
    if not last.train_loss < recs[0].train_loss:
        rep.fail(mode, last.round, f"final loss {last.train_loss} >= round 1's {recs[0].train_loss}")
    bleu = result.extras["bleu"]
    if not 0.0 <= bleu <= 1.0:
        rep.fail(mode, last.round, f"bleu {bleu} outside [0, 1]")


def check_compare_csv(rep: Rep, cfg: ExperimentConfig, text: str, ledger) -> None:
    """The compare CSV carries the ledger's bytes for federated, none otherwise."""
    lines = text.splitlines()
    seen = set()
    for line in lines[1:]:
        rnd, mode, _loss, _ppl, up, down = line.split(",")
        rnd = int(rnd)
        seen.add((mode, rnd))
        if mode == "federated":
            want = (ledger.uplink_bytes(rnd), ledger.downlink_bytes(rnd))
        else:
            want = (0, 0)
        if (int(up), int(down)) != want:
            rep.fail(mode, rnd, f"csv bytes up {up} down {down}, ledger {want}")
    for mode in MODES:
        for rnd in range(1, cfg.rounds + 1):
            if (mode, rnd) not in seen:
                rep.fail(mode, rnd, "row missing from compare.csv")

