"""Smoke test of the benchmark's trace harness (perfbench/spans.py).

The harness wraps the package's public functions from outside and binds
its work counters to argument names (t, cache_dir, self, kappa, limit,
m, xi, values), so a renamed or dropped parameter breaks it only when
it runs.  This runs it in a subprocess over small commands.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import json, sys
from spans import TARGETS, Tracer, layer_metrics
from zetagram import cli

out_dir, commands = sys.argv[1], json.loads(sys.argv[2])
tracer = Tracer()
tracer.install()
tracer.op = 1
codes = [cli.main(argv + ["--output", f"{out_dir}/{i}.out"]) for i, argv in enumerate(commands)]
tracer.op = None
json.dump({"codes": codes, "spans": tracer.dump(),
           "metrics": layer_metrics(tracer.spans, 1),
           "counters": {t.name: list(t.stats) for t in TARGETS if t.counter}}, sys.stdout)
"""


#: The span names of the sweep-driven engines and of the verify checks.
ENGINES = tuple(f"moments.{f}" for f in (
    "compute_S1", "compute_S2", "moment_abs_2k", "moment_cubed", "theorem1_pipeline",
    "signed_odd_moment", "max_scan")) + ("resonator.certify_lower_bound",)
CHECKS = tuple(f"verify.check.{c}" for c in ("prop1", "thm2", "thm1", "cor1", "cor2", "divisor"))


def test_tracer_wraps_every_counter_without_error(tmp_path):
    cache = str(tmp_path / "cache")
    maxscan = ["maxscan", "--t-max", "2000", "--cache-dir", cache, "--threads", "2"]
    commands = [
        ["verify", "all", "--t-max", "2000"],
        maxscan,
        maxscan,  # the second run reads the cache the first one wrote
        maxscan[:2] + ["1000"] + maxscan[3:],  # a lower height reads a prefix of it
        ["resonate", "--x", "1e4", "--certificate", "--t-max", "2000"],
        ["divisor", "--kappa", "3", "--partial-sum", "1e4"],
        ["points", "--t-max", "2000"],
        ["points", "--t-max", "2000", "--format", "json"],
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path), json.dumps(commands)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * len(commands)
    for name, stats in result["counters"].items():
        spans = [s for s in result["spans"] if s["name"] == name]
        assert spans, f"{name} was never called"
        produced = set().union(*(s["counts"] for s in spans))
        assert set(stats) <= produced, f"{name} produced {produced}, not {stats}"
    for name in ENGINES + CHECKS:
        assert any(s["name"] == name for s in result["spans"]), f"{name} was never called"
    metrics = result["metrics"]
    assert all(math.isfinite(v) for v in metrics.values())
    assert metrics["grampoints.cache.misses"] == 1
    assert metrics["grampoints.cache.hits"] == 2
