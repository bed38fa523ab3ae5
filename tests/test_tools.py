"""The pair summary of tools/bench_pairs.py on synthetic runs, and the
in-process pairs of tools/inproc_pairs.py on one revision."""

import math
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


# ----------------------------------------------------------------------
# tools/inproc_pairs.py
# ----------------------------------------------------------------------

import inproc_pairs  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]

#: Pairs of the same-revision run; certify-1e4 ops take about 0.1 s.
SAME_PAIRS = 24


def binomial_band(n: int, level: float = 0.99) -> tuple:
    """(lo, hi), the central band that the number of wins of n fair coin
    flips falls in with probability at least level: each tail outside it
    holds at most (1 - level) / 2."""
    tail = (1.0 - level) / 2
    pmf = [math.comb(n, k) / 2 ** n for k in range(n + 1)]
    lo = next(k for k in range(n + 1) if sum(pmf[:k + 1]) > tail)
    return lo, n - lo


def test_binomial_band():
    # P(X <= 5) = 55,455 / 2^24 = 0.0033 and P(X <= 6) = 0.0113 at n = 24
    assert binomial_band(24) == (6, 18)
    assert binomial_band(150) == (59, 91)


def test_inproc_pairs_of_one_revision_win_within_the_binomial_band():
    # the same src/ on both sides, imported under two package names: the
    # pairing must favour neither side, so the change's wins are those
    # of a fair coin (this test fails by chance in about 1 run of 100)
    clis = {side: inproc_pairs.load_cli(ROOT / "src", f"zetagram_same_{side}")
            for side in inproc_pairs.SIDES}
    worker = inproc_pairs.load_module(ROOT / "perfbench" / "worker.py", "perfbench_worker")
    result = inproc_pairs.run_pairs(clis, worker, "certify-1e4", SAME_PAIRS)
    lo, hi = binomial_band(SAME_PAIRS)
    assert lo <= result["change_won"] <= hi, result
    assert result["parent"]["incorrect_ops"] == result["change"]["incorrect_ops"] == 0
    assert clis["parent"] is not clis["change"]


# ----------------------------------------------------------------------
# tools/report_bytes.py
# ----------------------------------------------------------------------

import report_bytes  # noqa: E402


def test_report_bytes_summarizes_the_differing_lines():
    parent = b"name,value\na,1.0,2.5\nb,3,x\nc,1e-15\nd,-4.0e2\n"
    change = b"name,value\na,1.0,2.5000000000000004\nb,3,x\nc,3e-15,7\nd,-4.0e2\ne,1\n"
    lines = report_bytes.differing_lines(parent, change)
    assert [line for line, _, _ in lines] == [2, 4, 6]
    # line 4 holds one number against two and line 6 one against none, so
    # only line 2 pairs its numbers: 2.5 moved by one ulp
    assert report_bytes.summarize(lines) == {
        "lines": 3, "unpaired": 2, "largest": (math.ulp(2.5) / 2.5000000000000004, 2, "2.5", "2.5000000000000004")}
    assert report_bytes.summarize([]) == {"lines": 0, "unpaired": 0, "largest": None}
    assert report_bytes.NUMBER.findall("t=-1.5e-3;z=.25,+7") == ["-1.5e-3", ".25", "+7"]


# ----------------------------------------------------------------------
# tools/line_coverage.py
# ----------------------------------------------------------------------

import re  # noqa: E402
import subprocess  # noqa: E402

import line_coverage  # noqa: E402


def test_line_coverage_lists_the_statements_one_test_file_never_runs():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "line_coverage.py"),
                           "tests/test_summation.py"], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    listed = proc.stdout.splitlines()
    assert proc.stderr.splitlines()[-1] == (f"{len(listed)} statements never executed; "
                                            "1 processes traced; pytest exited 0")
    files = {}
    for row in listed:
        match = re.fullmatch(r"(src/zetagram/\w+\.py):(\d+): (\S.*)", row)
        assert match, row
        path, line, source = match[1], int(match[2]), match[3]
        assert (ROOT / path).read_text().splitlines()[line - 1].strip() == source
        assert not source.startswith(("import ", "from ", "def ", "class ", "@", '"""'))
        files.setdefault(path, set()).add(line)
    # the summation tests run every statement of summation.py and none of
    # the command line's
    assert "src/zetagram/summation.py" not in files
    cli = ROOT / "src" / "zetagram" / "cli.py"
    assert files["src/zetagram/cli.py"] == {first for first, _ in line_coverage.statements(cli)}
