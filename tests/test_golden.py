"""The golden run: every result of five small seed-1 experiments, compared
with the values recorded in tests/golden.json (see scripts/golden.py)."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("golden", ROOT / "scripts" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

RECORDED = json.loads(golden.GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(golden.CONFIGS))
def test_matches_recorded_run(name, tmp_path):
    diffs = golden.differences(RECORDED[name], golden.run(name, tmp_path))
    assert not diffs, f"{len(diffs)} values differ, first: " + "; ".join(diffs[:5])


def test_records_every_config():
    assert sorted(RECORDED) == sorted(golden.CONFIGS)


def test_differences_rules():
    assert golden.differences({"a": [1, 2.0]}, {"a": [1, 2.0 * (1 + 1e-12)]}) == []
    assert golden.differences([1.0], [1.0 + 1e-8])
    assert golden.differences([3], [3.0])  # an int never matches a float
    assert golden.differences([float("nan")], [float("nan")]) == []
    assert golden.differences({"a": 1}, {"b": 1})
