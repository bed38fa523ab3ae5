"""The pair summary of tools/bench_pairs.py on synthetic runs, and the
in-process pairs of tools/inproc_pairs.py on stub ops and on one
revision."""

import math
import random
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

#: Pairs of the same-revision run; certify-1e4 ops take about 0.03 s.
SAME_PAIRS = 24


class StubWorker:
    """The part of perfbench/worker.py that run_pairs uses, with fixed op
    times: an op that runs first in its pair takes 2 s and the second
    1 s, so whichever side runs first loses the pair.  Records each op
    as (cli, phase, phi)."""

    def __init__(self, check_op):
        self.ops = []
        self.check_op = check_op
        self.WORKLOADS = {"stub": dict(
            argv=lambda phi, cache: ["stub", repr(phi), cache],
            check=lambda phi, out, rng, warm_out: None if out == "ok" else out,
            phi_per_op=True)}

    def run_op(self, cli, argv, phase):
        self.ops.append((cli, phase, float(argv[1])))
        timed = sum(p == "timed" for _, p, _ in self.ops)
        return {"argv": argv, "wall_s": 2.0 if timed % 2 else 1.0, "error": None}, cli()


def test_inproc_pairs_alternate_which_side_runs_first():
    worker = inproc_pairs.load_module(ROOT / "perfbench" / "worker.py", "perfbench_worker")
    stub = StubWorker(worker.check_op)
    change_outputs = iter(["ok", "ok", "wrong", "ok", "wrong", "ok", "ok"])
    clis = {"parent": lambda: "ok", "change": lambda: next(change_outputs)}
    pairs = 6
    result = inproc_pairs.run_pairs(clis, stub, "stub", pairs, seed=3)
    # the side that runs first is slower: odd pairs the parent, even the change
    assert result["change_won"] == pairs // 2
    assert result["parent"]["median_s"] == result["change"]["median_s"] == 1.5
    assert result["ratio"] == 1.0
    assert result["order"] == "odd pairs ran the parent first, even pairs the change first"
    assert result["parent"]["incorrect_ops"] == 0 and result["change"]["incorrect_ops"] == 2
    # one warm-up op a side on the run's phi, then one phi per pair for both sides
    rng = random.Random("stub/3")
    run_phi = rng.uniform(0.0, math.pi)
    want = [(clis["parent"], "warmup", run_phi), (clis["change"], "warmup", run_phi)]
    for i in range(1, pairs + 1):
        phi = rng.uniform(0.0, math.pi)
        sides = ("parent", "change") if i % 2 else ("change", "parent")
        want += [(clis[side], "timed", phi) for side in sides]
    assert stub.ops == want


def test_inproc_pairs_of_one_revision_run_every_op_correctly():
    # the same src/ on both sides, imported under two package names
    clis = {side: inproc_pairs.load_cli(ROOT / "src", f"zetagram_same_{side}")
            for side in inproc_pairs.SIDES}
    worker = inproc_pairs.load_module(ROOT / "perfbench" / "worker.py", "perfbench_worker")
    result = inproc_pairs.run_pairs(clis, worker, "certify-1e4", SAME_PAIRS)
    assert result["parent"]["incorrect_ops"] == result["change"]["incorrect_ops"] == 0
    assert [clis[side].__name__ for side in inproc_pairs.SIDES] == [
        "zetagram_same_parent.cli", "zetagram_same_change.cli"]
    assert result["pairs"] == SAME_PAIRS and 0 <= result["change_won"] <= SAME_PAIRS


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
