"""The pair summary of tools/bench_pairs.py on synthetic runs."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import bench_pairs  # noqa: E402

BENCH = {"end_to_end": [{"name": "op_s.p50", "better": "lower", "bound": 0.25}]}


def runs(values, incorrect=()):
    return [{"correct": i not in incorrect,
             "problems": [f"verify all --phi {i}: check failed"] if i in incorrect else [],
             "metrics": {"w/op_s.p50": {"value": v}}} for i, v in enumerate(values)]


def test_claim_is_met_only_when_every_run_is_correct():
    parent = runs([1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.02, 0.98, 1.0])
    for bad in ((), (3,)):
        change = runs([0.5] * 10, incorrect=bad)
        incorrect = {"parent": bench_pairs.incorrect_runs(parent),
                     "change": bench_pairs.incorrect_runs(change)}
        summary = bench_pairs.summarize(parent, change, BENCH)
        claim = bench_pairs.claim_check(summary, "w/op_s.p50", 10, incorrect)
        assert claim["wins_at_least_nine_tenths"] and claim["gain_exceeds_parent_iqr"]
        assert claim["every_run_correct"] is claim["met"] is (not bad)
    assert incorrect == {"parent": {"count": 0, "problems": []},
                         "change": {"count": 1, "problems": ["verify all --phi 3: check failed"]}}
