"""Alternating parent/change pairs of perfbench/run.py, summarized as a
BENCH_<label>.json entry.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --label my-change \\
        --pairs 10 --claim certify-1e4/op_s.p50 --trace

Run from the root of a git checkout.  Each revision is exported with
`git archive` into a temporary directory, so the benchmark runs on
committed files only and the repository gains no worktree.  Pair i runs
`python3 perfbench/run.py --workload W --seed i` once in each export,
the parent first in odd pairs and the change first in even ones.  The
entry holds every run's last output line, and for each end-to-end
metric of BENCHMARK.json the two medians and quartiles, the ratio
change/parent, the bound, and the number of pairs the change won.  It
counts, per side, the runs whose output failed the benchmark's check,
and prints and records their problems.  With --claim, the named metric
is tested against the rule for a gain: no run is incorrect, the change
wins at least nine tenths of the pairs, and the medians differ by more
than the parent's interquartile range.  With --trace,
one `--trace 1` run per side adds its per-layer metrics.  The entry also
records the cost of `import zetagram` on each side (see import_cost) and
the size of each side's src/ (see src_lines).
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path


def export(rev: str, dest: Path) -> Path:
    """The files of rev, committed, under dest."""
    data = subprocess.run(["git", "archive", "--format=tar", rev], check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")
    return dest


#: How perfbench/run.py starts the line of a check that failed.
FAILED = "FAILED CHECK: "


def run_bench(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """The JSON record that perfbench/run.py prints as its last line, with
    the problems of its `FAILED CHECK:` lines added as "problems"."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--trace", str(trace)],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"perfbench/run.py printed nothing in {checkout}:\n{proc.stderr}")
    record = json.loads(lines[-1])
    record["problems"] = [line.removeprefix(FAILED) for line in lines if line.startswith(FAILED)]
    if workload != "all":  # one workload's metrics carry no workload prefix
        record["metrics"] = {f"{workload}/{k}": v for k, v in record["metrics"].items()}
    return record


def incorrect_runs(runs) -> dict:
    """The runs of one side whose output failed the benchmark's check:
    their number and their problems (each names the op's argv, which
    holds its phi)."""
    bad = [r for r in runs if not r["correct"]]
    return {"count": len(bad), "problems": [p for r in bad for p in r["problems"]]}


#: Fresh interpreters per side that time `import zetagram`.
IMPORT_RUNS = 5


def import_cost(checkouts: dict) -> dict:
    """Per side, the median wall time and ru_maxrss of IMPORT_RUNS fresh
    `python -c "import zetagram"` processes, the sides alternating.  No
    per-layer metric covers the import, which every command pays once."""
    code = "import resource, zetagram; print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
    samples = {side: {"wall_s": [], "peak_rss_mb": []} for side in checkouts}
    for _ in range(IMPORT_RUNS):
        for side, checkout in checkouts.items():
            env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
            start = time.perf_counter()
            out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                 capture_output=True, text=True).stdout
            samples[side]["wall_s"].append(time.perf_counter() - start)
            samples[side]["peak_rss_mb"].append(int(out) / 1024.0)
    return {"command": f'python -c "import zetagram", {IMPORT_RUNS} fresh processes per side',
            **{side: {k: statistics.median(v) for k, v in m.items()} for side, m in samples.items()}}


def src_lines(checkout: Path) -> int:
    """The line count of `cat src/zetagram/*.py | wc -l` in checkout."""
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src" / "zetagram").glob("*.py"))


def quartiles(values) -> tuple:
    """(q1, q3) by statistics.quantiles(n=4), exclusive method."""
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(parent_runs, change_runs, bench) -> dict:
    better = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    summary = {}
    for key in parent_runs[0]["metrics"]:
        name = key.rsplit("/", 1)[-1]
        if name not in better:
            continue
        sense, bound = better[name]
        parent = [r["metrics"][key]["value"] for r in parent_runs]
        change = [r["metrics"][key]["value"] for r in change_runs]
        sign = 1.0 if sense == "lower" else -1.0
        p_med, c_med = statistics.median(parent), statistics.median(change)
        p_q, c_q = quartiles(parent), quartiles(change)
        ratio = c_med / p_med if p_med else math.inf
        summary[key] = {
            "better": sense, "parent_median": p_med, "change_median": c_med, "ratio": ratio,
            "bound": bound, "within_bound": sign * (ratio - 1.0) <= bound,
            "parent_quartiles": p_q, "change_quartiles": c_q,
            "parent_iqr": p_q[1] - p_q[0],
            f"change_{sense}_in_pairs": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
        }
    return summary


def claim_check(summary: dict, key: str, pairs: int, incorrect: dict) -> dict:
    """The rule for a gain on one metric: no run of either side is
    incorrect, the change wins at least nine tenths of the pairs, and its
    median is better than the parent's by more than the parent's
    interquartile range."""
    row = summary[key]
    wins = row[f"change_{row['better']}_in_pairs"]
    gain = row["parent_median"] - row["change_median"]
    if row["better"] == "higher":
        gain = -gain
    enough_wins = wins >= math.ceil(0.9 * pairs)
    all_correct = not any(side["count"] for side in incorrect.values())
    return {"metric": key, "wins": wins, "pairs": pairs,
            "wins_at_least_nine_tenths": enough_wins,
            "median_gain": gain, "gain_exceeds_parent_iqr": gain > row["parent_iqr"],
            "every_run_correct": all_correct,
            "met": all_correct and enough_wins and gain > row["parent_iqr"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", default="HEAD", help="git revision of the change")
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--description", default="", help="what the change does")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--claim", default=None,
                        help="workload/metric the change claims to improve")
    parser.add_argument("--trace", action="store_true",
                        help="add one --trace 1 run per side")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (quartiles need two runs a side)")

    bench = json.loads(Path("BENCHMARK.json").read_text())
    revisions = {side: subprocess.run(["git", "rev-parse", rev], check=True, capture_output=True,
                                      text=True).stdout.strip()
                 for side, rev in (("parent", args.parent), ("change", args.change))}
    load_start = os.getloadavg()
    work = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        sides = {side: export(rev, work / side) for side, rev in revisions.items()}
        lines = {"command": "cat src/zetagram/*.py | wc -l",
                 **{side: src_lines(path) for side, path in sides.items()}}
        runs = {"parent": [], "change": []}
        seeds = list(range(1, args.pairs + 1))
        for seed in seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                runs[side].append(run_bench(sides[side], args.workload, seed, 0))
                print(f"pair {seed} {side}: done", file=sys.stderr)
        imports = import_cost(sides)
        layer = None
        if args.trace:
            traced = {side: run_bench(path, args.workload, 0, 1)["metrics"]
                      for side, path in sides.items()}
            layer = {"command": f"python3 perfbench/run.py --workload {args.workload}"
                                " --trace 1 --seed 0, one run each",
                     **{key: {"parent": traced["parent"][key]["value"],
                              "change": traced["change"][key]["value"]}
                        for key in traced["parent"]}}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    summary = summarize(runs["parent"], runs["change"], bench)
    incorrect = {side: incorrect_runs(side_runs) for side, side_runs in runs.items()}
    for side, bad in incorrect.items():
        print(f"{side}: {bad['count']} incorrect run(s)", file=sys.stderr)
        for problem in bad["problems"]:
            print(f"  {problem}", file=sys.stderr)
    entry = {
        "label": args.label,
        "description": args.description,
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed <pair index>",
        "revisions": revisions,
        "pairs": args.pairs,
        "seeds": seeds,
        "order": "odd pairs ran the parent first, even pairs the change first",
        "machine": f"{os.cpu_count()} cores; parent and change in alternation on the same"
                   f" machine; load average {load_start} at the start, {os.getloadavg()} at the end",
        "iqr": "statistics.quantiles(n=4), exclusive method: q3 - q1 of the runs of one side",
        "claim": claim_check(summary, args.claim, args.pairs, incorrect) if args.claim
        else "none: no gain is claimed",
        "incorrect": incorrect,
        "summary": summary,
        "import": imports,
        "src_lines": lines,
        "layer": layer,
        "parent_runs": runs["parent"],
        "change_runs": runs["change"],
    }
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(entry, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
