"""CPU time of the training step's layers at the benchmark workloads' shapes.

Times, in this one process with one BLAS thread, the kernels a client's
round is made of:

- `grad`: `model.trainable_loss_and_grad` on one batch (the step's loss and
  gradient), on a workspace built once as `optim.local_train_round` builds
  it;
- `clip_adamw`: `optim._clip_flat` + `optim._adamw_flat` on its gradient,
  with AdamW's scratch built once as the round builds it;
- `round`: one `optim.local_train_round` of a client's steps per round;
- `perplexity`: `model.perplexity_of` over the held-out stream;
- `q4_encode`, `q4_decode`: `wire.serialize_params` and
  `wire.deserialize_params` of a client's round-1 delta, 4-bit, at the
  `full-d256-b8` shape only (the uplink codec of `wide-q4-tcp`).

Each at three shapes, built as `harness._setup` builds a run, seed 1:

- `lora-d16-b16`: LoRA rank 4 on `embed.W,rnn.U`, d 16, batch 16 (fed-lora);
- `full-d16-b16`: every entry trains, d 16, batch 16 (compare-fedavg);
- `full-d256-b8`: every entry trains, d 256, batch 8, on a 1000-byte
  generated corpus at split 0.4 (wide-q4-tcp).

Each kernel is sampled 15 times (2 with `--quick`); a sample is the mean
CPU time of a few back-to-back calls. The JSON printed gives the best and the median
sample in milliseconds, and the machine fingerprint `bench/run.py` records.
`--src PATH` times the `deltafed` package under another checkout's `src/`
(a tree from before the step's workspace is timed as its round calls the
step: no workspace, no AdamW scratch). `--against PATH` times two trees on
one host side by side: one long-lived process per tree builds every
kernel once, and the two take turns, one sample of one kernel each, 60
samples a side (2 with `--quick`), alternating which side samples first.
So a slow spell of the host falls on both sides alike, where whole runs
taken in turn can differ by more than the change. It prints both sides in
`BENCH_step.json`'s form, PATH as "parent" and `--src` as "change": each
side's best and median sample, the ratio of the medians (change over
parent), and in how many of the turns the change's sample was the faster.

    python3 scripts/step_bench.py
    python3 scripts/step_bench.py --src ../other-checkout/src
    python3 scripts/step_bench.py --against ../parent-checkout/src
    python3 scripts/step_bench.py --quick    # a smoke run of every kernel
"""

from __future__ import annotations

import argparse
import importlib.util
import inspect
import json
import multiprocessing
import statistics
import sys
import tempfile
import time
from contextlib import suppress
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> (ExperimentConfig fields besides the seed, generated corpus bytes
# or None for the bundled corpus)
SHAPES = {
    "lora-d16-b16": ({"lora_rank": 4, "batch_size": 16}, None),
    "full-d16-b16": ({"lora_rank": 0, "batch_size": 16}, None),
    "full-d256-b8": ({"lora_rank": 0, "batch_size": 8, "embed_dim": 256, "split": 0.4}, 1000),
}
SEED = 1
SAMPLES = 15
PAIRS = 60  # samples a side, taken in turns, with --against
KERNELS = ("grad", "clip_adamw", "round", "perplexity")
CODEC_SHAPE = "full-d256-b8"  # the shape whose uplink is 4-bit
CODEC_KERNELS = ("q4_encode", "q4_decode")


def kernel_names(shape: str) -> tuple[str, ...]:
    return KERNELS + CODEC_KERNELS if shape == CODEC_SHAPE else KERNELS


def load_module(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sample_ms(fn, calls: int) -> float:
    """The mean CPU time of `calls` calls of fn, in milliseconds."""
    t0 = time.process_time_ns()
    for _ in range(calls):
        fn()
    return (time.process_time_ns() - t0) / calls / 1e6


def summary(times: list[float]) -> dict:
    return {"best_ms": round(min(times), 4), "median_ms": round(statistics.median(times), 4)}


def kernels(shape: str, work_dir: Path, quick: bool) -> tuple[int, dict]:
    """One shape's steps per round, and its kernels: name -> (fn, calls
    per sample)."""
    import numpy as np

    import deltafed.harness as harness
    import deltafed.model as model_module
    from deltafed import ExperimentConfig
    from deltafed.model import perplexity_of, trainable_loss_and_grad
    from deltafed.optim import _adamw_flat, _clip_flat, _grad_norm, init_state, local_train_round
    from deltafed.params import subtract_trainable
    from deltafed.wire import deserialize_params, serialize_params

    settings, corpus_bytes = SHAPES[shape]
    fields = dict(settings)
    if corpus_bytes is not None:
        make_corpus = load_module("make_corpus", ROOT / "scripts" / "make_corpus.py").make_corpus
        corpus = work_dir / "corpus.txt"
        corpus.write_text(make_corpus(corpus_bytes, SEED), encoding="ascii")
        fields["corpus_path"] = str(corpus)
    cfg = ExperimentConfig(seed=SEED, clients=2, **fields)
    setup = harness._setup(cfg)
    task = harness._client_task(cfg, 0, setup.shards[0], setup.steps[0])
    model, shard = setup.model, setup.shards[0]
    steps = min(task.steps_per_round, 4) if quick else task.steps_per_round

    params = model.params
    p = params.trainable_flat.copy()
    values = params.arrays(trainable=p)
    groups = shard.batch(np.arange(min(cfg.batch_size, len(shard))))
    rng = task.rng()
    # the step's arrays, as local_train_round builds them once per round
    workspace = getattr(model_module, "Workspace", None)
    ws = {"ws": workspace(model)} if workspace else {}
    has_scratch = "scratch" in inspect.signature(_adamw_flat).parameters
    scratch = (np.empty((2, p.size)),) if has_scratch else ()

    def grad():
        return trainable_loss_and_grad(model, groups, rng=rng, values=values, **ws)

    g = grad()[1].copy()
    state = init_state(params)
    m, v = state.m_flat.copy(), state.v_flat.copy()

    def clip_adamw():
        _clip_flat(g, _grad_norm(g), cfg.max_grad_norm)
        _adamw_flat(p, g, m, v, 0, task.opt_cfg, *scratch)

    def train_round():
        local_train_round(
            model, init_state(params), shard, task.opt_cfg, task.rng(),
            batch_size=cfg.batch_size, steps=steps,
        )

    def perplexity():
        perplexity_of(model, setup.val_ids)

    calls = 1 if quick else 20
    timed = {
        "grad": (grad, calls),
        "clip_adamw": (clip_adamw, calls),
        "round": (train_round, 1),
        "perplexity": (perplexity, 1 if quick else 5),
    }
    if shape == CODEC_SHAPE:  # a round-1 delta, as a client uplinks it
        trained = local_train_round(
            model, init_state(params), shard, task.opt_cfg, task.rng(),
            batch_size=cfg.batch_size, steps=steps,
        )[0]
        delta = subtract_trainable(trained.params, params)
        raw = serialize_params(delta, "all", quantize_payload=True)
        timed["q4_encode"] = (lambda: serialize_params(delta, "all", quantize_payload=True), calls)
        timed["q4_decode"] = (lambda: deserialize_params(raw), calls)
    return steps, timed


def import_tree(src: Path) -> None:
    """Import the deltafed under `src`, and no other."""
    sys.path.insert(0, str(src))
    import deltafed

    if Path(deltafed.__file__).resolve().parent != src / "deltafed":
        sys.exit(f"deltafed was imported from {deltafed.__file__}, not {src}")


def fingerprint() -> dict:
    return load_module("bench_run", ROOT / "bench" / "run.py").fingerprint()


def one_tree(src: Path, quick: bool) -> dict:
    """Every kernel at every shape, timed on the deltafed under `src`."""
    import_tree(src)
    samples = 2 if quick else SAMPLES
    shapes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in SHAPES:
            steps, timed = kernels(name, Path(tmp), quick)
            shapes[name] = {"steps_per_round": steps}
            for kernel, (fn, calls) in timed.items():
                shapes[name][kernel] = summary([sample_ms(fn, calls) for _ in range(samples)])
    return {"src": str(src), "machine": fingerprint(), "shapes": shapes}


def serve(src: Path, quick: bool, conn) -> None:
    """One side of `two_trees`, in a process of its own: build every
    shape's kernels on the deltafed under `src`, send each shape's steps
    per round and the machine, then answer each (shape, kernel) asked for
    with one sample, until None comes."""
    import_tree(src)
    with tempfile.TemporaryDirectory() as tmp:
        built = {name: kernels(name, Path(tmp), quick) for name in SHAPES}
        conn.send(({name: steps for name, (steps, _) in built.items()}, fingerprint()))
        for name, kernel in iter(conn.recv, None):
            fn, calls = built[name][1][kernel]
            conn.send(sample_ms(fn, calls))


def two_trees(src: Path, against: Path, quick: bool) -> dict:
    """Both trees in long-lived processes of their own, sampled in turns:
    for each kernel, one sample from each side, the side that goes first
    alternating; merged side by side."""
    sides = {"parent": against, "change": src}
    turns = 2 if quick else PAIRS
    spawn = multiprocessing.get_context("spawn")  # a fresh interpreter imports each tree
    conns, procs = {}, []
    try:
        for side, path in sides.items():
            here, there = spawn.Pipe()
            procs.append(spawn.Process(target=serve, args=(path, quick, there), daemon=True))
            procs[-1].start()
            conns[side] = here
        built = {side: conn.recv() for side, conn in conns.items()}
        times = {(name, kernel, side): [] for name in SHAPES for kernel in kernel_names(name) for side in sides}
        for i in range(turns):
            order = ("change", "parent") if i % 2 else ("parent", "change")
            for name in SHAPES:
                for kernel in kernel_names(name):
                    for side in order:
                        conns[side].send((name, kernel))
                        times[name, kernel, side].append(conns[side].recv())
    finally:
        for conn in conns.values():
            with suppress(OSError):  # a side that died has told its error
                conn.send(None)
        for proc in procs:
            proc.join()
    shapes = {}
    for name in SHAPES:
        steps = {built[side][0][name] for side in sides}
        if len(steps) > 1:  # rounds of different lengths do not compare
            raise SystemExit(f"{name}: the two trees train {sorted(steps)} steps per round")
        row = {"steps_per_round": steps.pop()}
        for kernel in kernel_names(name):
            parent, change = (times[name, kernel, side] for side in sides)
            row[kernel] = {
                "parent": summary(parent),
                "change": summary(change),
                "ratio": round(statistics.median(change) / statistics.median(parent), 3),
                "change_wins": sum(c < p for p, c in zip(parent, change)),
            }
        shapes[name] = row
    return {
        "columns": {side: str(path) for side, path in sides.items()},
        "samples_per_side": turns,
        "statistics": (
            "best_ms, median_ms: a side's fastest and median sample; ratio: the change's median "
            "over the parent's; change_wins: turns in which the change's sample was the faster"
        ),
        "machine": built["change"][1],
        "shapes": shapes,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description="Time the training step's layers; print JSON.")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the src/ holding deltafed")
    parser.add_argument("--against", type=Path, help="another src/ to time alternately with --src")
    parser.add_argument("--quick", action="store_true", help="two samples of a few calls each")
    args = parser.parse_args()
    src = args.src.resolve()
    if args.against is None:
        result = one_tree(src, args.quick)
    else:
        result = two_trees(src, args.against.resolve(), args.quick)
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
