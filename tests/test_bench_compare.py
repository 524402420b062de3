"""tools/bench_compare.py counts a run only when its last line is a result of numbers."""

import importlib.util
import json
import pathlib

SPEC = importlib.util.spec_from_file_location(
    "bench_compare", pathlib.Path(__file__).parent.parent / "tools" / "bench_compare.py"
)
bench_compare = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_compare)


def _stdout(metrics, correct=True, failed=0, tail=""):
    result = {"correct": correct, "attempted": 10, "failed": failed,
              "metrics": {name: {"value": value, "unit": "s"} for name, value in metrics.items()}}
    return "setup_s 0.9 s\n" + json.dumps(result) + "\n" + tail


def test_a_result_of_numbers_counts():
    run = bench_compare.parse_run(0, _stdout({"setup_s": 0.9, "oracle.k_scanned": 120}))
    assert run["ok"] and run["metrics"] == {"setup_s": 0.9, "oracle.k_scanned": 120}


def test_an_absent_metric_does_not_count():
    run = bench_compare.parse_run(0, _stdout({"setup_s": 0.9, "oracle.k_scanned": None}))
    assert not run["ok"] and "oracle.k_scanned" in run["error"]
    assert not bench_compare.parse_run(0, _stdout({"setup_s": float("nan")}))["ok"]
    assert not bench_compare.parse_run(0, _stdout({"setup_s": True}))["ok"]


def test_a_last_line_that_is_not_the_result_does_not_count():
    for stdout in ("", "no json here\n", _stdout({"setup_s": 0.9}, tail="known_defect ...\n"), "[1, 2]\n"):
        run = bench_compare.parse_run(0, stdout)
        assert not run["ok"] and "not a result" in run["error"]


def test_a_failed_or_incorrect_run_does_not_count():
    assert not bench_compare.parse_run(1, _stdout({"setup_s": 0.9}))["ok"]
    assert not bench_compare.parse_run(0, _stdout({"setup_s": 0.9}, correct=False))["ok"]
    assert not bench_compare.parse_run(0, _stdout({"setup_s": 0.9}, failed=2))["ok"]


def test_summarise_reads_only_pairs_that_both_count():
    good = {"ok": True, "metrics": {"latency_tail_ms": 5.0}}
    fast = {"ok": True, "metrics": {"latency_tail_ms": 3.0}}
    bad = {"ok": False, "metrics": {"latency_tail_ms": None}}
    out = bench_compare.summarise([good, good, bad], [fast, bad, fast], {"latency_tail_ms": "lower"})
    entry = out["latency_tail_ms"]
    assert (entry["pairs"], entry["head_wins"], entry["base_runs"], entry["head_runs"]) == (1, 1, [5.0], [3.0])
