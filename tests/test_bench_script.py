"""The paired benchmark script's summariser, on canned run results."""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"


def _bench_module():
    spec = importlib.util.spec_from_file_location("bench_script", BENCH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _result(wall, setup, rss, attempted=10, failed=0):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {"norm_wall_s": {"value": wall, "unit": "s"},
                        "setup_s": {"value": setup, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def test_summarize_pairs():
    bench = _bench_module()
    pairs = [
        {"seed": 1, "parent": _result(0.80, 0.25, 79.0),
         "change": _result(0.60, 0.26, 36.0)},
        {"seed": 2, "parent": _result(0.90, 0.25, 79.2),
         "change": _result(0.95, 0.24, 36.2, failed=1)},
        {"seed": 3, "parent": _result(0.70, 0.25, 79.1),
         "change": _result(0.50, 0.25, 36.1)},
        {"seed": 4, "parent": _result(1.00, 0.25, 79.3), "change": None},
    ]
    entry = bench.summarize(pairs)
    assert entry["pairs"] == 4 and entry["seeds"] == [1, 2, 3, 4]
    parent, change = entry["parent"], entry["change"]
    assert parent["norm_wall_s"] == {"median": 0.85, "q1": 0.775,
                                     "q3": 0.925,
                                     "runs": [0.8, 0.9, 0.7, 1.0]}
    assert parent["attempted"] == 40 and parent["failed"] == 0
    assert parent["correct"] is True
    # a missing run counts against correctness but adds no values
    assert change["peak_rss_mb"]["runs"] == [36.0, 36.2, 36.1]
    assert change["peak_rss_mb"]["median"] == 36.1
    assert change["attempted"] == 30 and change["failed"] == 1
    assert change["correct"] is False
    assert entry["norm_wall_s_change_wins"] == 2
    assert entry["setup_s_change_wins"] == 1
    assert entry["peak_rss_mb_change_wins"] == 3


def test_summarize_single_pair_has_flat_quartiles():
    bench = _bench_module()
    entry = bench.summarize([{"seed": 9, "parent": _result(1.0, 0.2, 50.0),
                              "change": _result(1.0, 0.2, 50.0)}])
    assert entry["parent"]["setup_s"] == {"median": 0.2, "q1": 0.2,
                                          "q3": 0.2, "runs": [0.2]}
    assert entry["norm_wall_s_change_wins"] == 0
