"""Tests of the benchmark harness itself, with every workload at its tiny size."""

import copy
import json
import math
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import harness  # noqa: E402
import osa  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def refs():
    return harness.load_references()


def run_tiny(name, refs, trace=0, seed=harness.DEFAULT_SEED):
    result, record, _ = harness.run_workload(name, seed, 0, trace, size="tiny", refs=refs)
    return result, record


def alter_digit(x: float, position: int) -> float:
    """x with its `position`-th significant digit changed."""
    text = repr(x)
    seen = 0
    for i, ch in enumerate(text):
        if ch.isdigit() and (seen or ch != "0"):
            seen += 1
            if seen == position:
                return float(text[:i] + str((int(ch) + 1) % 10) + text[i + 1:])
    raise ValueError(f"{x!r} has fewer than {position} digits")


def test_benchmark_json_names_the_harness_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(harness.WORKLOADS)
    layer = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert layer == spans.LAYER_METRICS
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_workload_is_correct_at_tiny_size(name, trace, refs):
    result, record = run_tiny(name, refs, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0, record["failures"]
    assert result["correct"] and result["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[key]}
    for metric, entry in result["metrics"].items():
        assert NAME.fullmatch(metric)
        assert set(entry) == {"value", "unit"}
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
    json.loads(json.dumps(result))
    assert record["seed"] == harness.DEFAULT_SEED
    assert record["params"] == harness.SIZES[name]["tiny"]
    assert {"nproc", "python", "numpy"} <= set(record["machine"])


def test_other_seed_is_checked_by_invariants(refs):
    result, record = run_tiny("slots", refs, seed=7)
    assert result["correct"], record["failures"]
    assert record["inputs"] != harness.make_inputs(harness.DEFAULT_SEED)


def test_altered_gain_digit_fails_the_op(refs):
    bad = copy.deepcopy(refs)
    entry = bad["tiny"]["grid"]["solve-a0.15-b0.1"]
    entry["gain"] = alter_digit(entry["gain"], 8)
    result, record = run_tiny("grid", bad)
    assert not result["correct"]
    assert result["failed"] == 1
    assert [f["name"] for f in record["failures"]] == ["solve-a0.15-b0.1"]


def test_flipped_action_fails_the_op(refs):
    p = harness.SIZES["slots"]["tiny"]
    sc = osa.SCENARIOS[p["scenario"]]
    vf = osa.solve_single_channel(sc.channel, sc.rewards, l_max=p["threshold_lmax"])
    entry = refs["tiny"]["slots"]["setup-threshold"]
    assert harness.digest_actions(vf.actions) == entry["actions"]
    flipped = vf.actions.copy()
    flipped[0, 0] = (flipped[0, 0] + 1) % 3
    bad = copy.deepcopy(refs)
    bad["tiny"]["slots"]["setup-threshold"]["actions"] = harness.digest_actions(flipped)
    result, record = run_tiny("slots", bad)
    assert not result["correct"]
    assert result["failed"] == harness.SETUP_REPEATS
    assert {f["name"] for f in record["failures"]} == {"setup-threshold"}
