"""Read a rounds.csv report back into RoundRecords, for tests."""

from deltafed.errors import ArgumentError
from deltafed.metrics import CSV_COLUMNS, RoundRecord


def parse_rounds_csv(text: str) -> list[RoundRecord]:
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        raise ArgumentError("unrecognized rounds csv header")
    out = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise ArgumentError(f"malformed csv row: {ln!r}")
        out.append(
            RoundRecord(
                round=int(parts[0]),
                mode=parts[1],
                train_loss=float(parts[2]),
                perplexity=float(parts[3]),
                wall_ms=int(parts[4]),
                uplink_bytes=int(parts[5]),
                downlink_bytes=int(parts[6]),
            )
        )
    return out
