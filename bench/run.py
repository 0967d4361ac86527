"""deltafed benchmark: three federated workloads, end-to-end and per-layer.

Run from the repository root:

    python3 bench/run.py --workload fed-lora --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --quick

A timed run repeats one experiment of the workload for about ``--seconds``
seconds after one warm-up repetition and reports medians over the
repetitions. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates traced and untraced repetitions and prints the per-layer metrics
of the traced ones, plus the tracing overhead. The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed`` (rounds)
and ``metrics``. ``--quick`` runs every workload with tiny rounds, traced and
untraced, through every gate, and exits 0 only if all pass.

The program is imported from ``src/`` beside this directory and nowhere else.
Results, with a fingerprint of the machine, are written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

# numpy's BLAS threads would contend with the client threads for the cores.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# A traced run needs at least one traced and one untraced repetition.
MIN_REPS = 2


class ProgramMissing(Exception):
    pass


def load_program():
    """Import deltafed from ROOT/src and make_corpus from ROOT/scripts."""
    src = ROOT / "src"
    if not (src / "deltafed" / "__init__.py").is_file():
        raise ProgramMissing(f"no deltafed package under {src}")
    sys.path.insert(0, str(src))
    import deltafed

    if Path(deltafed.__file__).resolve().parent != (src / "deltafed").resolve():
        raise ProgramMissing(f"deltafed was imported from {deltafed.__file__}, not {src}")
    script = ROOT / "scripts" / "make_corpus.py"
    if not script.is_file():
        raise ProgramMissing(f"no corpus generator at {script}")
    spec = importlib.util.spec_from_file_location("make_corpus", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.make_corpus


def git_commit() -> str:
    """HEAD of ROOT's own .git, read as files; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
    }


def measure(wl, cfg, seconds: float, traced: bool, work_dir: Path):
    """Warm-up repetition, then repetitions until `seconds` would be exceeded."""
    from tracer import Tracer
    from workloads import run_rep

    tracer = Tracer()
    with tracer.installed(full=False):
        warm = run_rep(wl, cfg, tracer, False, work_dir)
    reps = []
    start = time.perf_counter()
    while True:
        full = traced and len(reps) % 2 == 0
        with tracer.installed(full=full):
            reps.append(run_rep(wl, cfg, tracer, full, work_dir))
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPS and elapsed + reps[-1].wall_s > seconds:
            break
    return warm, reps


def gate_summary(warm, reps) -> tuple[int, int, list[str]]:
    """-> (rounds attempted, rounds failed, problems), determinism included."""
    attempted = failed = 0
    problems = []
    for i, rep in enumerate([warm, *reps]):
        attempted += rep.rounds_attempted
        bad = set(rep.failed_rounds)
        problems += [f"rep {i}: {p}" for p in rep.problems]
        if not bad and rep.digest != warm.digest:
            bad = {("all", r) for r in range(rep.rounds_attempted)}
            problems.append(f"rep {i}: model/ledger/csv digest differs from the warm-up's")
        failed += len(bad)
    return attempted, failed, problems


def untraced_rounds(reps) -> list[float]:
    """Server round wall times (ms) of the run's untraced repetitions, pooled."""
    return [ms for r in reps if not r.traced and not r.failed_rounds for ms in r.round_ms]


def p90(values) -> float:
    import numpy as np

    return float(np.percentile(values, 90)) if values else 0.0


def end_to_end_metrics(reps, steps: int) -> dict[str, float]:
    ok = [r for r in reps if not r.traced and not r.failed_rounds]
    if not ok:
        return {}
    first = ok[0]
    return {
        "run_s": statistics.median(r.run_s for r in ok),
        "steps_per_s": statistics.median(steps / r.run_s for r in ok),
        "setup_s": statistics.median(r.setup_s for r in ok),
        "round_ms_p50": statistics.median(untraced_rounds(ok)),
        "uplink_bytes_per_round": first.uplink_bytes_per_round,
        "downlink_bytes_per_round": first.downlink_bytes_per_round,
        "final_loss": first.final_loss,
        "final_ppl": first.final_ppl,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(reps) -> dict[str, float]:
    from layers import layer_metrics

    traced = [r for r in reps if r.traced and not r.failed_rounds]
    plain = [r for r in reps if not r.traced and not r.failed_rounds]
    if not traced or not plain:
        return {}
    per_rep = [layer_metrics(r) for r in traced]
    out = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
    base = statistics.median(r.run_s for r in plain)
    out["trace.overhead_s"] = statistics.median(r.run_s for r in traced) - base
    out["trace.overhead_share"] = out["trace.overhead_s"] / base
    out["protocol.round_ms_p90"] = p90(untraced_rounds(plain))
    return out


def write_spans(path: Path, rep) -> None:
    with path.open("w") as f:
        for s in rep.spans:
            f.write(json.dumps(dataclasses.asdict(s)) + "\n")


def print_metrics(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")


def metric_units(trace: int) -> dict[str, str]:
    """name -> unit of the metrics a run prints, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_timed(args, make_corpus, machine) -> int:
    from workloads import WORKLOADS, make_config, modes_of, steps_per_experiment

    wl = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        work_dir = Path(tmp)
        cfg = make_config(wl, args.seed, wl.rounds, work_dir, make_corpus)
        steps = steps_per_experiment(cfg, modes_of(wl))
        warm, reps = measure(wl, cfg, args.seconds, bool(args.trace), work_dir)

    attempted, failed, problems = gate_summary(warm, reps)
    units = metric_units(args.trace)
    metrics = per_layer_metrics(reps) if args.trace else end_to_end_metrics(reps, steps)
    if set(metrics) != set(units):
        problems.append(f"metrics {sorted(set(metrics) ^ set(units))} computed or listed, not both")
        metrics = {n: v for n, v in metrics.items() if n in units}
    correct = failed == 0 and set(metrics) == set(units)
    rounds = untraced_rounds(reps)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "config": {k: v for k, v in vars(cfg).items() if k not in ("corpus_path", "output_dir")},
        "steps_per_experiment": steps,
        "repetitions": [
            {"traced": r.traced, "wall_s": r.wall_s, "setup_s": r.setup_s, "run_s": r.run_s}
            for r in [warm, *reps]
        ],
        "round_samples": len(rounds),
        "round_ms_p90": p90(rounds),
        "bleu": warm.bleu,
        "problems": problems,
        "correct": correct,
        "metrics": metrics,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    traced = [r for r in reps if r.traced]
    if traced:
        write_spans(OUT_DIR / f"{stem}-spans.jsonl", traced[-1])

    print(f"workload {wl.name} seed {args.seed}: {len(reps)} timed repetitions of "
          f"{cfg.rounds} rounds, {steps} steps each; machine {json.dumps(machine)}")
    print_metrics(metrics, units)
    print(f"  round_ms_p90 {p90(rounds):.6g} ms over {len(rounds)} untraced rounds; "
          f"bleu {warm.bleu:.6g}; failed rounds {failed}/{attempted}")
    for p in problems[:20]:
        print(f"  FAILED {p}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


def run_quick(make_corpus, machine) -> int:
    """Every workload with tiny rounds: one untraced and one traced repetition."""
    from layers import layer_metrics
    from tracer import Tracer
    from workloads import WORKLOADS, make_config, run_rep

    summary = {}
    attempted = failed = 0
    OUT_DIR.mkdir(exist_ok=True)
    for wl in WORKLOADS.values():
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            work_dir = Path(tmp)
            cfg = make_config(wl, 0, wl.quick_rounds, work_dir, make_corpus)
            tracer = Tracer()
            with tracer.installed(full=False):
                warm = run_rep(wl, cfg, tracer, False, work_dir)
            with tracer.installed(full=True):
                traced = run_rep(wl, cfg, tracer, True, work_dir)
        a, f, problems = gate_summary(warm, [traced])
        attempted += a
        failed += f
        layers = layer_metrics(traced) if not traced.failed_rounds else {}
        summary[wl.name] = {
            "failed": f,
            "problems": problems,
            "run_s": warm.run_s,
            "setup_s": warm.setup_s,
            "quant.quantize.calls": layers.get("quant.quantize.calls"),
            "transport.bytes": layers.get("transport.bytes"),
        }
        print(f"{wl.name}: {f}/{a} rounds failed, run {warm.run_s:.3f} s, "
              f"setup {warm.setup_s:.3f} s")
        for p in problems:
            print(f"  FAILED {p}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "machine": machine,
        "workloads": summary,
    }))
    return 0 if failed == 0 else 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true")
    args = p.parse_args(argv)
    if not args.quick and args.workload is None:
        p.error("--workload is required unless --quick is given")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:  # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    try:
        make_corpus = load_program()
    except ProgramMissing as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if not args.quick and args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    machine = fingerprint()
    if args.quick:
        return run_quick(make_corpus, machine)
    return run_timed(args, make_corpus, machine)


if __name__ == "__main__":
    sys.exit(main())
