"""Two trees side by side: benchmark pairs, and where a round's time goes.

    python3 scripts/score_bench.py pairs --parent OLD --change NEW \\
        --workload wide-q4-tcp --seed 1 --pairs 10 --seconds 8
    python3 scripts/score_bench.py timeline --tree NEW --seed 1

`pairs` runs `bench/run.py --trace 0` in each checkout, one after the
other, alternating which side goes first, and prints one JSON object: every
run's end-to-end metrics, each side's median and quartiles, and how many
pairs the change won on each metric.

`timeline` runs the `wide-q4-tcp` workload once (after a warm-up run) from
the tree's `src/` and prints, per round, the driving thread's fold phase
(from the last client's collected training to the end of the fold), its
time in the round-end callback that scores or reads the score, and the
span in which a worker scored the previous round's model, with the part of
that span that ran before the callback began, hidden behind the round's
own work. Clocks are CLOCK_MONOTONIC, which every process shares.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def bench_once(tree: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{tree}: {workload} seed {seed} failed: {out.stdout[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def pairs(args) -> dict:
    parent, change = Path(args.parent).resolve(), Path(args.change).resolve()
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            tree = parent if side == "parent" else change
            runs[side].append(bench_once(tree, args.workload, args.seed, args.seconds))
    higher = {"steps_per_s"}
    summary = {}
    for name in runs["parent"][0]:
        old = [r[name] for r in runs["parent"]]
        new = [r[name] for r in runs["change"]]
        better = [(n > o) if name in higher else (n < o) for o, n in zip(old, new)]
        summary[name] = {
            "parent": quartiles(old),
            "change": quartiles(new),
            "change_wins": sum(better),
            "ties": sum(o == n for o, n in zip(old, new)),
        }
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "pairs": args.pairs, "summary": summary, "runs": runs}


def timeline(args) -> dict:
    """Per-round phases of one wide-q4-tcp run of the tree at --tree."""
    tree = Path(args.tree).resolve()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # as bench/run.py runs, before numpy loads
    for sub in ("src", "bench", "scripts"):
        sys.path.insert(0, str(tree / sub))
    import deltafed.harness as harness
    import deltafed.workers as workers
    from make_corpus import make_corpus
    from workloads import WORKLOADS, make_config

    marks: list[tuple[str, float, float]] = []  # (what, start, end) on this thread
    spans_file = Path(tempfile.mkstemp(prefix="score-spans-")[1])

    collect = workers.WorkerTrainer.collect

    def timed_collect(self):
        out = collect(self)
        marks.append(("collected", time.perf_counter(), 0.0))
        return out

    workers.WorkerTrainer.collect = timed_collect
    scored_in_worker = hasattr(workers, "perplexity_of")
    if scored_in_worker:  # patched before the pool forks, so the workers have it
        score = workers.perplexity_of

        def worker_score(*a, **kw):
            start = time.perf_counter()
            ppl = score(*a, **kw)
            with spans_file.open("a") as f:
                f.write(f"{start!r} {time.perf_counter()!r}\n")
            return ppl

        workers.perplexity_of = worker_score

    run_server = harness.run_server

    def timed_server(*a, on_round=None, **kw):
        def round_end(t, model):
            start = time.perf_counter()
            on_round(t, model)
            marks.append(("round_end", start, time.perf_counter()))

        return run_server(*a, on_round=round_end, **kw)

    harness.run_server = timed_server
    workers.planned_workers = lambda clients: min(clients, 2)
    wl = WORKLOADS["wide-q4-tcp"]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = make_config(wl, args.seed, wl.rounds, Path(tmp), make_corpus)
        harness.run_experiment(cfg, report=False)  # warm-up; forks the pool
        marks.clear()
        spans_file.write_text("")
        start = time.perf_counter()
        harness.run_experiment(cfg, report=False)
        run_s = time.perf_counter() - start
    workers.shutdown()
    spans = [tuple(map(float, line.split())) for line in spans_file.read_text().splitlines()]
    spans_file.unlink()

    rounds, last_collect, last_end = [], None, float("-inf")
    for what, t0, t1 in marks:
        if what == "collected":
            last_collect = t0
            continue
        fold = (t0 - last_collect) * 1e3
        row = {"round": len(rounds) + 1, "fold_ms": fold, "round_end_ms": (t1 - t0) * 1e3}
        # the worker scores round t-1's model right behind its round t reply
        scoring = [s for s in spans if last_end <= s[0] <= t1]
        if scoring:
            s0, s1 = scoring[0]
            row["worker_scoring_ms"] = (s1 - s0) * 1e3
            row["scoring_hidden_ms"] = max(0.0, min(s1, t0) - s0) * 1e3
        rounds.append(row)
        last_end = t1
    keys = {k for r in rounds for k in r} - {"round"}
    medians = {k: statistics.median(r[k] for r in rounds if k in r) for k in sorted(keys)}
    return {"tree": str(tree), "seed": args.seed, "scored_in_worker": scored_in_worker,
            "run_s": run_s, "median": medians, "rounds": rounds}


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    q = sub.add_parser("pairs")
    q.add_argument("--parent", required=True)
    q.add_argument("--change", required=True)
    q.add_argument("--workload", required=True)
    q.add_argument("--seed", type=int, default=1)
    q.add_argument("--pairs", type=int, default=10)
    q.add_argument("--seconds", type=float, default=8.0)
    t = sub.add_parser("timeline")
    t.add_argument("--tree", required=True)
    t.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    result = pairs(args) if args.command == "pairs" else timeline(args)
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    from run import fingerprint  # bench/run.py's

    result["machine"] = fingerprint()
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
