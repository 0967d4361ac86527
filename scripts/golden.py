"""The golden run: a characterization of deltafed's results at seed 1.

Runs five small experiments (the benchmark's three workloads at their quick
sizes, a dense 4-bit TCP federation with sample-weighted deltas) and records
what each produces: the byte and message tables, the loss and perplexity of
every round, BLEU, and the sum and L2 norm of every entry of every final
model. `tests/test_golden.py` runs the same experiments and compares them
with `tests/golden.json`: integers and strings exactly, floats to a relative
1e-9. A change that alters any result, however slightly, fails it.

Run from the repository root:

    python3 scripts/golden.py           # print the summary as JSON
    python3 scripts/golden.py --write   # rewrite tests/golden.json
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden.json"
SEED = 1

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "scripts"))

import deltafed.harness as harness  # noqa: E402
from deltafed import ExperimentConfig  # noqa: E402
from make_corpus import make_corpus  # noqa: E402

# name -> (ExperimentConfig fields besides seed and paths, generated corpus
# bytes or None for the bundled corpus, run all three modes)
CONFIGS = {
    "fed-lora": (
        {"rounds": 2, "clients": 2, "lr": 0.01, "batch_size": 16, "lora_rank": 4},
        None,
        False,
    ),
    "wide-q4-tcp": (
        {
            "rounds": 6,
            "clients": 2,
            "split": 0.4,
            "embed_dim": 256,
            "lora_rank": 0,
            "quantize_payload": True,
            "transport": "tcp",
        },
        1000,
        False,
    ),
    "compare-fedavg": (
        {"rounds": 2, "clients": 2, "aggregation": "fedavg", "lora_rank": 0, "batch_size": 16},
        None,
        True,
    ),
    # three clients with unequal shards, so sample weighting differs from
    # the uniform mean
    "dense-q4-tcp-samples": (
        {
            "rounds": 3,
            "clients": 3,
            "split": 0.5,
            "lr": 0.01,
            "delta_form": "dense",
            "delta_weighting": "samples",
            "quantize_payload": True,
            "transport": "tcp",
        },
        2000,
        False,
    ),
}


def _params(model) -> dict:
    """Entry name -> [sum, L2 norm] of its values."""
    return {
        name: [float(np.sum(model.params.array(name))), float(np.linalg.norm(model.params.array(name)))]
        for name in model.params.names()
    }


def _result(result) -> dict:
    out = {
        "records": [
            [r.round, r.mode, r.train_loss, r.perplexity, r.uplink_bytes, r.downlink_bytes]
            for r in result.records
        ],
        "bleu": result.extras["bleu"],
    }
    if "overhead_bytes" in result.extras:
        out["overhead_bytes"] = result.extras["overhead_bytes"]
    if result.ledger is not None:
        # json object keys are strings
        out["byte_table"] = {
            str(rnd): {key: {str(c): n for c, n in per.items()} for key, per in slot.items()}
            for rnd, slot in result.ledger.byte_table().items()
        }
    if result.model is not None:
        out["params"] = _params(result.model)
    if result.client_models is not None:
        out["client_params"] = [_params(m) for m in result.client_models]
    return out


def _cell(raw: str):
    for kind in (int, float):
        try:
            return kind(raw)
        except ValueError:
            pass
    return raw


def run(name: str, work_dir: Path) -> dict:
    """Run one configuration in work_dir; -> its summary."""
    settings, corpus_bytes, compare = CONFIGS[name]
    settings = dict(settings, seed=SEED, output_dir=str(work_dir / "report"))
    if corpus_bytes is not None:
        corpus = work_dir / "corpus.txt"
        corpus.write_text(make_corpus(corpus_bytes, SEED), encoding="ascii")
        settings["corpus_path"] = str(corpus)
    cfg = ExperimentConfig(**settings)
    if not compare:
        return _result(harness.run_experiment(cfg, report=False))

    # keep each mode's result as compare_modes makes it
    results = {}
    run_experiment = harness.run_experiment

    def kept(mode_cfg, *args, **kwargs):
        results[mode_cfg.mode] = run_experiment(mode_cfg, *args, **kwargs)
        return results[mode_cfg.mode]

    harness.run_experiment = kept
    try:
        csv_path, _ = harness.compare_modes(cfg, work_dir / "compare")
    finally:
        harness.run_experiment = run_experiment
    with open(csv_path, newline="") as f:
        rows = [[_cell(c) for c in row] for row in csv.reader(f)]
    return {"compare_csv": rows, "modes": {m: _result(r) for m, r in sorted(results.items())}}


def run_all() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        out = {}
        for name in CONFIGS:
            work = Path(tmp) / name
            work.mkdir()
            out[name] = run(name, work)
        return out


def differences(want, got, path: str = "") -> list[str]:
    """Where got departs from want: ints and strings exactly, floats to a
    relative 1e-9 (nan equals nan)."""
    if isinstance(want, dict) and isinstance(got, dict):
        if sorted(want) != sorted(got):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [d for k in want for d in differences(want[k], got[k], f"{path}/{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [d for i, (w, g) in enumerate(zip(want, got)) for d in differences(w, g, f"{path}/{i}")]
    if isinstance(want, float) and isinstance(got, float):
        if math.isnan(want) and math.isnan(got) or math.isclose(want, got, rel_tol=1e-9):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if type(want) is not type(got) or want != got:
        return [f"{path}: {got!r} != {want!r}"]
    return []


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help=f"rewrite {GOLDEN.relative_to(ROOT)}")
    args = ap.parse_args()
    text = json.dumps(run_all(), indent=1, sort_keys=True) + "\n"
    if args.write:
        GOLDEN.write_text(text)
        print(f"wrote {GOLDEN}")
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
