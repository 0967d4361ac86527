"""Spans and counters recorded around deltafed's functions, from outside it.

Modules import functions by name, so a wrapper has to replace the name in
each consuming module's namespace (``deltafed.protocol.serialize_params``,
not only ``deltafed.wire.serialize_params``). Class methods are patched on
the class, which every module shares. A site whose module no longer holds
the name is skipped: that module has stopped consuming the function.

Spans stay in memory until the caller reads them. Each records its name, the
thread it ran on ("server" for the main thread, else the thread name, which
the harness sets to ``client-<i>``), wall start and end, thread CPU time, the
id of the enclosing span on the same thread, and a size (bytes or elements)
where the call has one.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    thread: str
    start: float
    end: float
    cpu: float
    parent: int  # -1 when no enclosing span on this thread
    size: int

    @property
    def dur(self) -> float:
        return self.end - self.start


def _nbytes_arg(args, _out) -> int:
    return len(args[1])  # channel.send(self, data)


def _nbytes_out(_args, out) -> int:
    return len(out)


def _elements_arg(args, _out) -> int:
    return int(args[0].size)  # quantize(tensor_or_array)


def _elements_out(_args, out) -> int:
    return int(out.size)


# (module, attribute, span name, size function). Every place a function is
# consumed is listed, so a call is seen whichever module makes it.
SPAN_SITES = [
    ("deltafed.optim", "loss_and_grad", "model.loss_and_grad", None),
    ("deltafed.harness", "perplexity_of", "model.perplexity_of", None),
    ("deltafed.harness", "greedy_decode", "model.greedy_decode", None),
    ("deltafed.optim", "clip_gradients", "optim.clip_gradients", None),
    ("deltafed.optim", "adamw_step", "optim.adamw_step", None),
    ("deltafed.harness", "local_train_round", "optim.local_train_round", None),
    ("deltafed.protocol", "local_train_round", "optim.local_train_round", None),
    ("deltafed.harness", "subtract_trainable", "params.subtract_trainable", None),
    ("deltafed.protocol", "subtract_trainable", "params.subtract_trainable", None),
    ("deltafed.harness", "attach", "lora.attach", None),
    ("deltafed.wire", "quantize", "quant.quantize", _elements_arg),
    ("deltafed.wire", "dequantize", "quant.dequantize", _elements_out),
    ("deltafed.wire", "quant_to_bytes", "quant.to_bytes", _nbytes_out),
    ("deltafed.wire", "quant_from_bytes", "quant.from_bytes", None),
    ("deltafed.harness", "serialize_params", "wire.serialize_params", _nbytes_out),
    ("deltafed.protocol", "serialize_params", "wire.serialize_params", _nbytes_out),
    ("deltafed.harness", "deserialize_params", "wire.deserialize_params", None),
    ("deltafed.protocol", "deserialize_params", "wire.deserialize_params", None),
    ("deltafed.protocol", "encode_message", "wire.encode_message", _nbytes_out),
    ("deltafed.protocol", "decode_message", "wire.decode_message", None),
    ("deltafed.transport", "MemoryChannel.send", "transport.send", _nbytes_arg),
    ("deltafed.transport", "MemoryChannel.recv", "transport.recv", _nbytes_out),
    ("deltafed.transport", "TcpChannel.send", "transport.send", _nbytes_arg),
    ("deltafed.transport", "TcpChannel.recv", "transport.recv", _nbytes_out),
    ("deltafed.harness", "run_server", "protocol.run_server", None),
    ("deltafed.harness", "run_client", "protocol.run_client", None),
    ("deltafed.harness", "dense_delta", "protocol.dense_delta", None),
    ("deltafed.protocol", "dense_delta", "protocol.dense_delta", None),
    ("deltafed.harness", "apply_dense", "protocol.apply_dense", None),
    ("deltafed.protocol", "apply_dense", "protocol.apply_dense", None),
    ("deltafed.harness", "gradualdiff_aggregate", "aggregate.gradualdiff_aggregate", None),
    ("deltafed.protocol", "gradualdiff_aggregate", "aggregate.gradualdiff_aggregate", None),
    ("deltafed.harness", "fedavg_aggregate", "aggregate.fedavg_aggregate", None),
    ("deltafed.protocol", "fedavg_aggregate", "aggregate.fedavg_aggregate", None),
    ("deltafed.harness", "mean_delta", "aggregate.mean_delta", None),
    ("deltafed.protocol", "mean_delta", "aggregate.mean_delta", None),
    ("deltafed.aggregate", "mean_delta", "aggregate.mean_delta", None),
    ("deltafed.harness", "corpus_tokens", "data.corpus_tokens", None),
    ("deltafed.harness", "partition_iid", "data.partition_iid", None),
    ("deltafed.harness", "bleu", "metrics.bleu", None),
    ("deltafed.harness", "emit_report", "metrics.emit_report", None),
    ("deltafed.harness", "bleu_of", "harness.bleu_of", None),
]

# A mode's first round starts at its first call to one of these: the server's
# round-1 broadcast (federated), the first wire round trip (central) or the
# first local round (local).
ROUND_START_SPANS = ("wire.serialize_params", "optim.local_train_round")

# The few sites an untraced run needs, to find where each round 1 starts. A
# handful of calls per round, so their cost is far below the run-to-run
# spread.
MARK_SITES = [site for site in SPAN_SITES if site[2] in ROUND_START_SPANS]

# Wrapped in every run; its return values are kept for the correctness gates.
EXPERIMENT_SITE = ("deltafed.harness", "run_experiment", "harness.run_experiment", None)

# (module, attribute, counter name, only inside this span or None)
COUNT_SITES = [
    ("deltafed.params", "Tensor.__post_init__", "params.tensors", "optim.local_train_round"),
    ("deltafed.params", "ParameterSet.replace_values", "params.replace_values", None),
]


def _resolve(module: str, attr: str):
    """-> (owner object, attribute name), or None when the site is gone."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, name):
        return None
    return owner, name


class Tracer:
    """Installs wrappers, then collects spans, counts and kept return values."""

    def __init__(self) -> None:
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[Span] = []
        self.kept: list[tuple[int, object, object]] = []  # (span id, first arg, return)
        self._counters: list[dict[str, int]] = []
        self._local = threading.local()

    # -- per-thread state ---------------------------------------------------

    def _stack(self) -> list[tuple[int, str]]:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.counts = {}
            self._counters.append(local.counts)  # list.append is atomic
        return stack

    def counts(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for per_thread in self._counters:
            for name, n in per_thread.items():
                total[name] = total.get(name, 0) + n
        return total

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, fn, name: str, size_fn, keep: bool):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1][0] if stack else -1
            thread = threading.current_thread()
            label = "server" if thread is threading.main_thread() else thread.name
            stack.append((sid, name))
            ok = False
            cpu0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = time.perf_counter()
                cpu1 = time.thread_time()
                stack.pop()
                size = size_fn(args, out) if ok and size_fn is not None else 0
                tracer.spans.append(
                    Span(sid, name, label, t0, t1, cpu1 - cpu0, parent, size)
                )
                if keep and ok:
                    tracer.kept.append((sid, args[0] if args else None, out))

        return traced

    def _count_wrapper(self, fn, name: str, inside: str | None):
        tracer = self

        def counted(*args, **kwargs):
            stack = tracer._stack()
            if inside is None or any(n == inside for _, n in stack):
                counts = tracer._local.counts
                counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, module: str, attr: str, wrap) -> None:
        found = _resolve(module, attr)
        if found is None:
            return
        owner, name = found
        original = getattr(owner, name)
        setattr(owner, name, wrap(original))
        self._patches.append((owner, name, original))

    @contextmanager
    def installed(self, full: bool):
        """Patch the sites for a traced run (full) or an untraced one."""
        sites = SPAN_SITES if full else MARK_SITES
        try:
            for module, attr, name, size_fn in [EXPERIMENT_SITE, *sites]:
                keep = name == EXPERIMENT_SITE[2]
                self._patch(module, attr, partial(self._span_wrapper, name=name, size_fn=size_fn, keep=keep))
            if full:
                for module, attr, name, inside in COUNT_SITES:
                    self._patch(module, attr, partial(self._count_wrapper, name=name, inside=inside))
            yield self
        finally:
            for owner, name, original in reversed(self._patches):
                setattr(owner, name, original)
            self._patches.clear()
