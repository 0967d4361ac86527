"""Command line front end.

    deltafed run --config exp.cfg [--mode federated|central|local]
                 [--seed N] [--transport memory|tcp] [--out DIR]
    deltafed compare --config exp.cfg [--seed N] [--out DIR]

Exit code 0 on success; on failure, one categorized error line on stderr
and a nonzero exit code.
"""

from __future__ import annotations

import argparse
import sys

from .config import MODES, TRANSPORTS, ExperimentConfig, load_config, override
from .errors import DeltaFedError
from .harness import compare_modes, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltafed",
        description="Federated fine-tuning experiments with delta aggregation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a single experiment mode")
    run.add_argument("--config", required=True, help="path to a key=value config file")
    run.add_argument("--mode", choices=MODES)
    run.add_argument("--seed", type=int)
    run.add_argument("--transport", choices=TRANSPORTS)
    run.add_argument("--out", help="report directory (overrides output_dir)")

    cmp_ = sub.add_parser("compare", help="run federated, central, and local")
    cmp_.add_argument("--config", required=True)
    cmp_.add_argument("--seed", type=int)
    cmp_.add_argument("--out", help="report directory (overrides output_dir)")
    return parser


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    return override(
        cfg,
        mode=getattr(args, "mode", None),
        seed=args.seed,
        transport=getattr(args, "transport", None),
        output_dir=args.out,
    )


def _cmd_run(args) -> int:
    cfg = _load(args)
    result = run_experiment(cfg)
    last = result.records[-1]
    print(f"wrote {result.csv_path}")
    print(f"wrote {result.json_path}")
    print(
        f"{cfg.mode}: {len(result.records)} round(s), "
        f"final loss {last.train_loss:.6g}, perplexity {last.perplexity:.6g}, "
        f"uplink {sum(r.uplink_bytes for r in result.records)} B, "
        f"downlink {sum(r.downlink_bytes for r in result.records)} B"
    )
    return 0


def _cmd_compare(args) -> int:
    cfg = _load(args)
    csv_path, json_path = compare_modes(cfg)
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_compare(args)
    except DeltaFedError as e:
        print(f"{e.category}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
