"""Smoke tests of the benchmark itself. Run from the repository root:

    python3 -m pytest bench/test_quick.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def test_quick_mode_runs_every_workload_through_every_gate():
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--quick"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["workloads"]) == {"fed-lora", "wide-q4-tcp", "compare-fedavg"}
    quant = {n: w["quant.quantize.calls"] for n, w in result["workloads"].items()}
    assert quant == {"fed-lora": 0, "wide-q4-tcp": quant["wide-q4-tcp"], "compare-fedavg": 0}
    assert quant["wide-q4-tcp"] > 0
    assert result["machine"]["blas_threads"] == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fed-lora", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert out.returncode != 0
    assert out.stdout == ""
