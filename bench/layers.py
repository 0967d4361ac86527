"""Per-layer metrics of one traced repetition, derived from its spans.

Suffixes: ``.ms`` is total milliseconds in one experiment, ``.ms_p50`` the
median milliseconds of one call, ``.self_ms``/``.self_s`` the total minus the
time covered by child spans, ``.calls`` a call count per experiment.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

_BROADCAST = ("wire.serialize_params", "wire.encode_message", "transport.send")
_AGGREGATE = (
    "aggregate.gradualdiff_aggregate",
    "aggregate.fedavg_aggregate",
    "aggregate.mean_delta",
    "protocol.apply_dense",
)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _server_rounds(run_server, children) -> list[dict[str, float]]:
    """Split the server's direct child spans into rounds and phases.

    A round opens with the server's broadcast serialize. Sends after the
    round's aggregation are the shutdown and are left out; receives before
    round 1 are the join acks.
    """
    rounds: list[dict[str, float]] = []
    aggregated = False
    for s in sorted(children[run_server.id], key=lambda s: s.start):
        if s.name == "wire.serialize_params":
            rounds.append({"broadcast": 0.0, "wait": 0.0, "aggregate": 0.0})
            aggregated = False
        if not rounds:
            continue
        if s.name in _BROADCAST and not aggregated:
            rounds[-1]["broadcast"] += s.dur
        elif s.name == "transport.recv":
            rounds[-1]["wait"] += s.dur
        elif s.name in _AGGREGATE:
            rounds[-1]["aggregate"] += s.dur
            aggregated = True
    return rounds


def layer_metrics(rep) -> dict[str, float]:
    """Every per-layer metric except the tracing overhead, for one repetition."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in rep.spans:
        by_name[s.name].append(s)
        if s.parent >= 0:
            children[s.parent].append(s)

    def total(name):
        return sum(s.dur for s in by_name[name])

    def ms(name):
        return 1e3 * total(name)

    def p50_ms(name):
        return 1e3 * _median([s.dur for s in by_name[name]])

    def self_s(spans):
        return sum(s.dur - sum(c.dur for c in children[s.id]) for s in spans)

    def mode_runs(mode):
        return [s for s in by_name["harness.run_experiment"] if rep.modes.get(s.id) == mode]

    steps = len(by_name["model.loss_and_grad"])
    train = by_name["optim.local_train_round"]
    train_wall = sum(s.dur for s in train)
    quantized = sum(s.size for s in by_name["quant.quantize"])
    recv = by_name["transport.recv"]
    rounds = [r for srv in by_name["protocol.run_server"] for r in _server_rounds(srv, children)]
    sends = by_name["transport.send"]
    evals = [
        s
        for s in by_name["model.perplexity_of"] + by_name["harness.bleu_of"]
        if s.thread == "server"
    ]

    return {
        "model.loss_and_grad.ms_p50": p50_ms("model.loss_and_grad"),
        "model.loss_and_grad.calls": steps,
        "model.loss_and_grad.cpu_s": sum(s.cpu for s in by_name["model.loss_and_grad"]),
        "model.perplexity_of.ms": ms("model.perplexity_of"),
        "model.greedy_decode.ms": ms("model.greedy_decode"),
        "optim.adamw_step.ms_p50": p50_ms("optim.adamw_step"),
        "optim.clip_gradients.ms_p50": p50_ms("optim.clip_gradients"),
        "optim.local_train_round.self_ms": 1e3 * self_s(train),
        "optim.local_train_round.cpu_over_wall": (
            sum(s.cpu for s in train) / train_wall if train_wall else 0.0
        ),
        "params.tensors_per_step": rep.counts.get("params.tensors", 0) / steps if steps else 0.0,
        "params.subtract_trainable.ms": ms("params.subtract_trainable"),
        "params.replace_values.calls": rep.counts.get("params.replace_values", 0),
        "lora.attach.ms": ms("lora.attach"),
        "quant.quantize.calls": len(by_name["quant.quantize"]),
        "quant.quantize.ms_p50": p50_ms("quant.quantize"),
        "quant.quantize.ns_per_elem": (
            1e9 * total("quant.quantize") / quantized if quantized else 0.0
        ),
        "quant.dequantize.ms_p50": p50_ms("quant.dequantize"),
        "quant.to_bytes.ms_p50": p50_ms("quant.to_bytes"),
        "quant.from_bytes.ms_p50": p50_ms("quant.from_bytes"),
        "wire.serialize_params.self_ms": 1e3 * self_s(by_name["wire.serialize_params"]),
        "wire.deserialize_params.self_ms": 1e3 * self_s(by_name["wire.deserialize_params"]),
        "wire.bytes_encoded": sum(s.size for s in by_name["wire.serialize_params"]),
        "wire.decode_message.ms": ms("wire.decode_message"),
        "transport.send.ms": ms("transport.send"),
        "transport.recv.server_wait_ms": 1e3 * sum(s.dur for s in recv if s.thread == "server"),
        "transport.recv.client_wait_ms": 1e3 * sum(s.dur for s in recv if s.thread != "server"),
        "transport.msgs": len(sends),
        "transport.bytes": sum(s.size for s in sends),
        "protocol.server.broadcast_ms": 1e3 * _median([r["broadcast"] for r in rounds]),
        "protocol.server.wait_ms": 1e3 * _median([r["wait"] for r in rounds]),
        "protocol.server.aggregate_ms": 1e3 * _median([r["aggregate"] for r in rounds]),
        "protocol.client.idle_ms": 1e3 * _median([s.dur for s in recv if s.thread != "server"]),
        "protocol.dense_delta.ms": ms("protocol.dense_delta"),
        "protocol.apply_dense.ms": ms("protocol.apply_dense"),
        "aggregate.gradualdiff_aggregate.ms": ms("aggregate.gradualdiff_aggregate"),
        "aggregate.fedavg_aggregate.ms": ms("aggregate.fedavg_aggregate"),
        "aggregate.mean_delta.ms": ms("aggregate.mean_delta"),
        "data.corpus_tokens.ms": ms("data.corpus_tokens"),
        "data.partition_iid.ms": ms("data.partition_iid"),
        "metrics.bleu.ms": ms("metrics.bleu"),
        "metrics.emit_report.ms": ms("metrics.emit_report"),
        "harness.run_central.self_s": self_s(mode_runs("central")),
        "harness.run_local.self_s": self_s(mode_runs("local")),
        "harness.eval_share": sum(s.dur for s in evals) / rep.run_s if rep.run_s else 0.0,
        "quality.bleu": rep.bleu,
    }
