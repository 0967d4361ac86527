"""CPU time of the training step's layers at the benchmark workloads' shapes.

Times, in this one process with one BLAS thread, the kernels a client's
round is made of:

- `grad`: `model.trainable_loss_and_grad` on one batch (the step's loss and
  gradient);
- `clip_adamw`: `optim._clip_flat` + `optim._adamw_flat` on its gradient;
- `round`: one `optim.local_train_round` of a client's steps per round;
- `perplexity`: `model.perplexity_of` over the held-out stream.

Each at three shapes, built as `harness._setup` builds a run, seed 1:

- `lora-d16-b16`: LoRA rank 4 on `embed.W,rnn.U`, d 16, batch 16 (fed-lora);
- `full-d16-b16`: every entry trains, d 16, batch 16 (compare-fedavg);
- `full-d256-b8`: every entry trains, d 256, batch 8, on a 1000-byte
  generated corpus at split 0.4 (wide-q4-tcp).

Each kernel is sampled 15 times (2 with `--quick`); a sample is the mean CPU time of a
few back-to-back calls. The JSON printed gives the best and the median
sample in milliseconds, and the machine fingerprint `bench/run.py` records.
`--src PATH` times the `deltafed` package under another checkout's `src/`,
so two trees can be timed alternately on one host:

    python3 scripts/step_bench.py
    python3 scripts/step_bench.py --src ../other-checkout/src
    python3 scripts/step_bench.py --quick    # a smoke run of every kernel
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import sys
import tempfile
import time
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


def load_module(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cpu_ms(fn, samples: int, calls: int) -> dict:
    """Best and median of `samples` samples, each the mean CPU time of
    `calls` calls of fn, in milliseconds."""
    times = []
    for _ in range(samples):
        t0 = time.process_time_ns()
        for _ in range(calls):
            fn()
        times.append((time.process_time_ns() - t0) / calls / 1e6)
    return {"best_ms": round(min(times), 4), "median_ms": round(statistics.median(times), 4)}


def time_shape(settings: dict, corpus_bytes, work_dir: Path, samples: int, quick: bool) -> dict:
    import numpy as np

    import deltafed.harness as harness
    from deltafed import ExperimentConfig
    from deltafed.model import perplexity_of, trainable_loss_and_grad
    from deltafed.optim import _adamw_flat, _clip_flat, _grad_norm, init_state, local_train_round

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

    def grad():
        return trainable_loss_and_grad(model, groups, rng=rng, values=values)

    g = grad()[1]
    state = init_state(params)
    m, v = state.m_flat.copy(), state.v_flat.copy()

    def clip_adamw():
        _clip_flat(g, _grad_norm(g), cfg.max_grad_norm)
        _adamw_flat(p, g, m, v, 0, task.opt_cfg)

    def train_round():
        local_train_round(
            model, init_state(params), shard, task.opt_cfg, task.rng(),
            batch_size=cfg.batch_size, steps=steps,
        )

    def perplexity():
        perplexity_of(model, setup.val_ids)

    calls = 1 if quick else 20
    return {
        "steps_per_round": steps,
        "grad": cpu_ms(grad, samples, calls),
        "clip_adamw": cpu_ms(clip_adamw, samples, calls),
        "round": cpu_ms(train_round, samples, 1),
        "perplexity": cpu_ms(perplexity, samples, 1 if quick else 5),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description="Time the training step's layers; print JSON.")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the src/ holding deltafed")
    parser.add_argument("--quick", action="store_true", help="two samples of a few calls each")
    args = parser.parse_args()
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import deltafed

    if Path(deltafed.__file__).resolve().parent != src / "deltafed":
        sys.exit(f"deltafed was imported from {deltafed.__file__}, not {src}")
    samples = 2 if args.quick else SAMPLES
    with tempfile.TemporaryDirectory() as tmp:
        shapes = {
            name: time_shape(settings, corpus_bytes, Path(tmp), samples, args.quick)
            for name, (settings, corpus_bytes) in SHAPES.items()
        }
    fingerprint = load_module("bench_run", ROOT / "bench" / "run.py").fingerprint()
    print(json.dumps({"src": str(src), "machine": fingerprint, "shapes": shapes}, indent=1))


if __name__ == "__main__":
    main()
