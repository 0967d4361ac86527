"""Peak resident memory of one federated run, for checking that it stays
flat as the rounds grow.

Runs the benchmark's `wide-q4-tcp` shape (a 1000-byte generated corpus at
split 0.4, a 256-wide model whose ~72K values all train, 4-bit uplinks over
TCP, two clients) for the given number of rounds in this process, then
prints `resource.getrusage(RUSAGE_SELF).ru_maxrss`: kilobytes on Linux.
Run each round count in a fresh process, from the repository root:

    python3 scripts/peak_rss.py 20
    python3 scripts/peak_rss.py 200
"""

from __future__ import annotations

import argparse
import resource
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "scripts"))

from deltafed import ExperimentConfig  # noqa: E402
from deltafed.harness import run_experiment  # noqa: E402
from make_corpus import make_corpus  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description="Print the peak RSS (kB) of one wide-q4-tcp-shaped run.")
    parser.add_argument("rounds", type=int)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus.txt"
        corpus.write_text(make_corpus(1000, 1), encoding="ascii")
        cfg = ExperimentConfig(
            corpus_path=str(corpus),
            split=0.4,
            embed_dim=256,
            lora_rank=0,
            quantize_payload=True,
            transport="tcp",
            clients=2,
            rounds=args.rounds,
            seed=1,
        )
        run_experiment(cfg, report=False)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


if __name__ == "__main__":
    main()
