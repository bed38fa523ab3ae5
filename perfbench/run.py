"""zetagram benchmark: end-to-end and per-layer metrics of the CLI.

    python3 perfbench/run.py --workload verify-1e4 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                    # every workload, seed 0

Run from the root of a checkout.  Workloads, metric names, units and
bounds live in BENCHMARK.json.  Each run starts two worker processes in
turn (see worker.py): both import zetagram from src/ and run the
untimed warm-up op on the same seeded input, which gives two set-up
times and one repeated-input check; the second then measures.  With
--trace 1 the second worker also runs a traced loop and the run prints
the per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The benchmark exits with code
2 and prints no result when src/zetagram is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"

#: Wall-clock budget of one run's workers; a run must end within 180 s.
RUN_BUDGET_S = 170.0


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# environment record
# ----------------------------------------------------------------------

def loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_record() -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest()[:16]}


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------

def run_workers(workload, seed, seconds, trace, run_dir, deadline):
    """Start the set-up worker, then the measuring worker, and return
    their records, each with its set-up time (None for a worker that
    crashed or ran out of time)."""
    records = []
    for role in ("setup", "measure"):
        spec = {"workload": workload, "seed": seed, "seconds": seconds,
                "trace": trace, "role": role, "root": str(ROOT), "src": str(SRC),
                "cache_dir": str(run_dir / f"gram-cache-{role}"),
                "out": str(run_dir / f"{role}.json"),
                "trace_out": str(WORK_DIR / f"trace-{workload}-seed{seed}.json")}
        start = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                                  stdout=sys.stderr, timeout=max(1.0, deadline - start))
        except subprocess.TimeoutExpired:
            print(f"{workload}: {role} worker ran out of time", file=sys.stderr)
            records.append(None)
            continue
        if proc.returncode != 0 or not os.path.exists(spec["out"]):
            print(f"{workload}: {role} worker exited with {proc.returncode}", file=sys.stderr)
            records.append(None)
            continue
        with open(spec["out"]) as fh:
            rec = json.load(fh)
        rec["setup_s"] = rec["warmup_end"] - start
        records.append(rec)
    return records


def tail(values):
    """(value, percentile) of the highest percentile with at least ten
    samples above it; the slowest op when there are fewer than eleven."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    k = n - 10  # k-th smallest leaves exactly ten samples above it
    return ordered[k - 1], 100.0 * k / n


def run_workload(workload, seed, seconds, trace, bench) -> dict:
    load_start = loadavg()
    WORK_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR))
    try:
        setup, measure = run_workers(workload, seed, seconds, trace, run_dir,
                                     time.monotonic() + RUN_BUDGET_S)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    complete = setup is not None and measure is not None
    ops = [op for rec in (setup, measure) if rec for op in rec["ops"]]
    failures = [op for op in ops if op["error"]]
    problems = [f"{' '.join(op['argv'])}: {op['error']}" for op in failures]
    repeated = not complete or setup["warmup_sha256"] == measure["warmup_sha256"]
    if not repeated:
        problems.append("warm-up outputs of the two workers differ on the same input")
    if not complete:
        problems.append("a worker did not finish")
    attempted = max(1, len(ops))
    failed = len(failures) + (not repeated) if complete else attempted
    env = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
           "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
           **(measure or {}).get("versions", {}),
           "loadavg_start": load_start, "loadavg_end": loadavg(),
           "git_commit": git_commit(), **source_record(),
           "note": "shared box (2 cores, 7 GB): other tenants' load adds noise"}
    result = {"env": env, "problems": problems, "attempted": attempted, "failed": failed,
              "correct": not problems, "metrics": {}, "lines": []}
    if not complete:
        return result

    timed = [op for op in measure["ops"] if op["phase"] == "timed"]
    walls = [op["wall_s"] for op in timed]
    tail_value, tail_pct = tail(walls)
    setups = [setup["setup_s"], measure["setup_s"]]
    e2e = {
        "op_s.p50": (statistics.median(walls), f"median of {len(walls)} timed ops"),
        "op_s.tail": (tail_value, f"p{tail_pct:g} of {len(walls)} timed ops"
                      + ("; under 11 ops no percentile has 10 above it, so the slowest"
                         " op is reported" if len(walls) < 11 else "")),
        "cpu_s.p50": (statistics.median(op["cpu_s"] for op in timed),
                      "median CPU (user+sys, all threads) of the timed ops"),
        "setup_s": (statistics.median(setups),
                    "median of " + ", ".join(f"{s:.3f}" for s in setups)
                    + " s: worker start, import, warm-up op"),
        "peak_rss_mb": (measure["peak_rss_mb"], "ru_maxrss of the measuring worker; "
                        f"peak address space {measure['peak_address_space_mb']} MB"),
    }
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    lines = [f"{name:<12} {value:.6g} {units[name]}  ({why})" for name, (value, why) in e2e.items()]
    lines.append(f"failed_ratio {failed / attempted:.6g}  ({failed} of {attempted} ops"
                 " failed; every op counted, warm-ups and check ops included)")
    if trace:
        layers = measure["layers"]
        metrics = {m["name"]: layers["metrics"][m["name"]] for m in bench["per_layer"]}
        lines += layer_lines(bench, layers)
    else:
        metrics = {m["name"]: e2e[m["name"]][0] for m in bench["end_to_end"]}
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    result["lines"] = lines
    return result


def layer_lines(bench, layers):
    from spans import COMPUTED

    m = layers["metrics"]
    lines = ["per-layer metrics, per traced op (computed = derived by the benchmark"
             " from call arguments and results):"]
    for spec in bench["per_layer"]:
        name = spec["name"]
        label = " (computed)" if name.rsplit(".", 1)[1] in COMPUTED else ""
        lines.append(f"  {name:<44} {m[name]:.6g} {spec['unit']}{label}")
    lines.append(f"  spans: {layers['spans_file']}")
    for i, (root, self_sum, overlap) in enumerate(layers["accounting"]):
        lines.append(f"  traced op {i}: wall {root:.4f} s, summed self time {self_sum:.4f} s,"
                     f" of which {overlap:.4f} s runs concurrently on pool threads;"
                     f" self - overlap - wall = {self_sum - overlap - root:+.2e} s")
    return lines


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    if not (SRC / "zetagram" / "__init__.py").is_file():
        print(f"error: {SRC / 'zetagram'} not found; run from the root of a zetagram checkout",
              file=sys.stderr)
        return 2
    bench = load_spec()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    results = {}
    for name in names if args.workload == "all" else [args.workload]:
        res = run_workload(name, args.seed, args.seconds, args.trace, bench)
        print(f"== {name}  seed={args.seed}  seconds={args.seconds:g}  trace={args.trace}")
        print("env " + json.dumps(res["env"], sort_keys=True))
        for line in res["lines"]:
            print(line)
        for problem in res["problems"]:
            print(f"FAILED CHECK: {problem}")
        results[name] = res
    if len(results) == 1:
        metrics = res["metrics"]
    else:
        metrics = {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    # a run whose worker crashed or timed out has no metrics to report
    return 0 if all(r["metrics"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
