"""Paired in-process timings of two revisions on one workload of
BENCHMARK.json.

    python3 tools/inproc_pairs.py --parent HEAD~1 --change HEAD --workload verify-1e4 --pairs 60

Run from the root of a git checkout.  Each revision is exported with
`bench_pairs.export` (git archive), and the src/zetagram of each export
is imported in this one process under its own package name,
zetagram_parent and zetagram_change.  The op of the workload, its argv
and its output check, come from perfbench/worker.py, and one op runs as
there: `cli.main(argv)` with standard output captured, and only that
call timed.  Each side first runs one untimed warm-up op.  Then each
pair draws phi as the benchmark does (one per op, or one per run) and
runs one op on each side on that phi, the parent first in odd pairs
and the change first in even ones.  Both sides share the machine's
state of the moment, so the pairs see less of a shared machine's drift
than separate processes do.

Prints one JSON object: per side the median and quartiles of the op's
wall time and the number of ops whose output failed the check, the
ratio of the medians (change/parent), and the number of pairs the
change won.  This tool sits beside bench_pairs.py and does not replace
it: the BENCH_*.json entries and the rule for a gain stay with that.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import math
import random
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

from bench_pairs import export, quartiles

ROOT = Path(__file__).resolve().parents[1]

SIDES = ("parent", "change")


def load_module(path: Path, name: str, package: bool = False):
    """The module at path (a package's directory when package is true),
    imported under name."""
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py" if package else path,
        submodule_search_locations=[str(path)] if package else None)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_cli(src: Path, name: str):
    """zetagram.cli of the checkout whose src/ is src, from a package
    imported under name."""
    load_module(src / "zetagram", name, package=True)
    return importlib.import_module(f"{name}.cli")


def run_pairs(clis: dict, worker, workload: str, pairs: int, seed: int = 0) -> dict:
    """Alternate ops of workload on the cli modules clis["parent"] and
    clis["change"]; returns the summary that main prints."""
    wl = worker.WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    run_phi = rng.uniform(0.0, math.pi)
    walls = {side: [] for side in SIDES}
    incorrect = {side: 0 for side in SIDES}
    with contextlib.ExitStack() as stack:
        caches = {side: stack.enter_context(tempfile.TemporaryDirectory(prefix="inproc-pairs-"))
                  for side in SIDES}
        warm_out = {}
        for side in SIDES:
            rec, warm_out[side] = worker.run_op(clis[side], wl["argv"](run_phi, caches[side]),
                                                "warmup")
            worker.check_op(rec, warm_out[side], wl.get("warmup_check", wl["check"]), run_phi,
                            random.Random(f"rows/warmup/{run_phi!r}"), warm_out[side])
            incorrect[side] += rec["error"] is not None
        for i in range(1, pairs + 1):
            phi = rng.uniform(0.0, math.pi) if wl["phi_per_op"] else run_phi
            for side in SIDES if i % 2 else SIDES[::-1]:
                rec, out = worker.run_op(clis[side], wl["argv"](phi, caches[side]), "timed")
                worker.check_op(rec, out, wl["check"], phi, random.Random(f"rows/{i}/{phi!r}"),
                                warm_out[side])
                walls[side].append(rec["wall_s"])
                incorrect[side] += rec["error"] is not None
    medians = {side: statistics.median(w) for side, w in walls.items()}
    return {
        "workload": workload, "pairs": pairs, "seed": seed,
        "order": "odd pairs ran the parent first, even pairs the change first",
        **{side: {"median_s": medians[side], "quartiles_s": quartiles(walls[side]),
                  "incorrect_ops": incorrect[side]} for side in SIDES},
        "ratio": medians["change"] / medians["parent"],
        "change_won": sum(c < p for p, c in zip(walls["parent"], walls["change"])),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", default="HEAD", help="git revision of the change")
    parser.add_argument("--workload", required=True,
                        help="a workload named in BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=60)
    parser.add_argument("--seed", type=int, default=0, help="seeds the draws of phi")
    args = parser.parse_args(argv)
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (quartiles need two ops a side)")

    worker = load_module(ROOT / "perfbench" / "worker.py", "perfbench_worker")
    work = Path(tempfile.mkdtemp(prefix="inproc-pairs-"))
    try:
        revs = {"parent": args.parent, "change": args.change}
        clis = {side: load_cli(export(rev, work / side) / "src", f"zetagram_{side}")
                for side, rev in revs.items()}
        result = run_pairs(clis, worker, args.workload, args.pairs, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"revisions": revs, **result}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
