"""Evaluation metrics and run reports: BLEU, round records, CSV/JSON emission."""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .config import MODES
from .errors import ArgumentError

CSV_COLUMNS = (
    "round",
    "mode",
    "train_loss",
    "perplexity",
    "wall_ms",
    "uplink_bytes",
    "downlink_bytes",
)


def _ngrams(tokens: Sequence, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(hypothesis: Sequence, references: list, max_n: int = 4) -> float:
    """Clipped n-gram precision score with brevity penalty, in [0, 1].

    Geometric mean of p_1..p_max_n over the orders the hypothesis is long
    enough to populate, so a 2-token hypothesis is scored on orders 1-2 and
    bleu(h, [h]) is 1.0 for every non-empty h. Any zero precision zeroes the
    score.
    """
    if max_n < 1:
        raise ArgumentError(f"max_n must be >= 1, got {max_n}")
    if not references:
        raise ArgumentError("references must be non-empty")
    hyp = list(hypothesis)
    if not hyp:
        return 0.0

    log_sum = 0.0
    orders = 0
    for n in range(1, max_n + 1):
        hyp_grams = _ngrams(hyp, n)
        total = sum(hyp_grams.values())
        if total == 0:
            break  # hypothesis too short for this and higher orders
        best = Counter()
        for ref in references:
            for gram, cnt in _ngrams(list(ref), n).items():
                if cnt > best[gram]:
                    best[gram] = cnt
        clipped = sum(min(cnt, best[gram]) for gram, cnt in hyp_grams.items())
        if clipped == 0:
            return 0.0
        log_sum += math.log(clipped / total)
        orders += 1

    c = len(hyp)
    ref_lens = sorted(len(r) for r in references)
    r = min(ref_lens, key=lambda L: (abs(L - c), L))  # ties -> shorter
    bp = min(1.0, math.exp(1.0 - r / c))
    return bp * math.exp(log_sum / orders)


@dataclass(frozen=True)
class RoundRecord:
    round: int
    mode: str
    train_loss: float
    perplexity: float
    wall_ms: int
    uplink_bytes: int
    downlink_bytes: int

    def __post_init__(self) -> None:
        if self.round < 0:
            raise ArgumentError(f"round must be >= 0, got {self.round}")
        if self.mode not in MODES:
            raise ArgumentError(f"unknown mode {self.mode!r}")
        if self.train_loss < 0:  # nan passes: eval-only records carry nan
            raise ArgumentError(f"train_loss must be >= 0, got {self.train_loss}")
        if self.perplexity < 1.0:
            raise ArgumentError(
                f"perplexity must be >= 1, got {self.perplexity}"
            )
        if self.wall_ms < 0:
            raise ArgumentError(f"wall_ms must be >= 0, got {self.wall_ms}")
        if self.uplink_bytes < 0 or self.downlink_bytes < 0:
            raise ArgumentError("byte counts must be >= 0")


def _fmt(x: float | int) -> str:
    return f"{x:.9g}" if isinstance(x, float) else str(x)


def format_rows(
    records: list[RoundRecord], columns: tuple[str, ...] = CSV_COLUMNS
) -> list[str]:
    rows = [",".join(columns)]
    for rec in records:
        rows.append(",".join(_fmt(getattr(rec, c)) for c in columns))
    return rows


def _check_contiguous(records: list[RoundRecord]) -> None:
    by_mode: dict[str, list[int]] = {}
    for rec in records:
        by_mode.setdefault(rec.mode, []).append(rec.round)
    for mode, rounds in by_mode.items():
        expect = list(range(rounds[0], rounds[0] + len(rounds)))
        if rounds != expect:
            raise ArgumentError(
                f"rounds for mode {mode!r} are not contiguous: {rounds}"
            )


def mode_totals(records: list[RoundRecord]) -> dict[str, dict]:
    """Per mode: round count, final loss and perplexity, summed bytes and wall."""
    modes: dict[str, dict] = {}
    for rec in records:
        slot = modes.setdefault(
            rec.mode,
            {
                "rounds": 0,
                "total_uplink_bytes": 0,
                "total_downlink_bytes": 0,
                "total_wall_ms": 0,
            },
        )
        slot["rounds"] += 1
        # json has no nan literal; eval-only records surface as null
        slot["final_train_loss"] = (
            None if math.isnan(rec.train_loss) else rec.train_loss
        )
        slot["final_perplexity"] = rec.perplexity
        slot["total_uplink_bytes"] += rec.uplink_bytes
        slot["total_downlink_bytes"] += rec.downlink_bytes
        slot["total_wall_ms"] += rec.wall_ms
    return modes


def emit_report(
    records: list[RoundRecord],
    out_dir: str | Path,
    summary_extra: dict | None = None,
) -> tuple[Path, Path]:
    """Write rounds.csv and summary.json; -> (csv_path, json_path)."""
    if not records:
        raise ArgumentError("no records to report")
    _check_contiguous(records)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    csv_path = out / "rounds.csv"
    csv_path.write_text("\n".join(format_rows(records)) + "\n")

    summary = {"modes": mode_totals(records)}
    if summary_extra:
        overlap = set(summary_extra) & set(summary)
        if overlap:
            raise ArgumentError(f"summary_extra collides on {sorted(overlap)}")
        summary.update(summary_extra)
    json_path = out / "summary.json"
    json_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return csv_path, json_path
