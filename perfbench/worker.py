"""One benchmark worker process: runs one workload through
``zetagram.cli.main(argv)`` in process and writes a JSON record.

    python3 perfbench/worker.py '<json spec>'

run.py starts two workers per run, one after the other.  The "setup"
worker imports zetagram and runs the untimed warm-up op; the "measure"
worker does the same and then runs the timed closed loop (one client:
the next op starts when the previous one has completed), the traced
loop when asked, and the once-per-run output checks.  The worker
imports zetagram from the checkout's ``src/`` and sets an address-space
limit on itself, so that an op that asks for too much memory fails with
MemoryError instead of exhausting a shared machine.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import traceback

#: Four times the largest peak of any workload (certify-1e4: about
#: 0.8 GB resident, 1.0 GB of address space).
ADDRESS_SPACE_LIMIT = 4 << 30

#: Op id of the warm-up op in the span record.
WARMUP_OP = -1

#: maxscan checkpoints whose maxima are compared against mpmath.
CHECK_ROWS = 3
#: Agreement with mpmath, relative to max(1, |Z|): binary64 phases near
#: t = 1e5 carry ~6e-11 absolute error, and at a maximum the main-sum
#: terms add coherently (|Z| = 12.27 at t = 74955.5 is 1.0e-9 off).
Z_TOLERANCE = 1e-9


# ----------------------------------------------------------------------
# workloads: the argv of one op and the check of its output
# ----------------------------------------------------------------------

def _verify_check(phi, out, rng, warm_out):
    if json.loads(out)["all_passed"] is not True:
        return "all_passed is not true"
    return None


def _maxscan_check(phi, out, rng, warm_out):
    """Each checkpoint's count against floor(count_estimate) + 1, and the
    maxima of a few seeded checkpoints against mpmath's Z and theta:
    each argmax must be a Gram point of direction phi and its |Z| the
    reported maximum.  All computed independently of the program."""
    import mpmath

    lines = out.splitlines()
    if not lines[0].startswith("T,count,max_plus,argmax_plus,max_minus,argmax_minus,"):
        return f"unexpected header {lines[0]!r}"
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        with mpmath.workdps(30):
            expected = int(mpmath.floor((mpmath.siegeltheta(float(row[0])) + phi) / mpmath.pi)) + 1
        if int(row[1]) != expected:
            return f"T={row[0]}: count {row[1]}, expected floor(count_estimate)+1 = {expected}"
    for row in rng.sample(rows, CHECK_ROWS):
        for value, t in ((row[2], row[3]), (row[4], row[5])):
            if not value:  # no point of this sign class below T
                continue
            value, t = float(value), float(t)
            z_ref = abs(float(mpmath.siegelz(t)))
            if abs(value - z_ref) > Z_TOLERANCE * max(1.0, z_ref):
                return f"T={row[0]}: max {value!r} at t={t!r}, mpmath |Z| = {z_ref!r}"
            with mpmath.workdps(30):
                k = (mpmath.siegeltheta(t) + phi) / mpmath.pi
                residual = float(mpmath.pi * (k - mpmath.nint(k)))
            if abs(residual) > Z_TOLERANCE:
                return f"T={row[0]}: argmax t={t!r} is off a Gram point by {residual!r} in theta"
    return None


def _certify_check(phi, out, rng, warm_out):
    cert = json.loads(out)["certificate"]
    if not cert["scanned_max"] >= cert["certified_bound"]:
        return f"scanned_max {cert['scanned_max']!r} < certified_bound {cert['certified_bound']!r}"
    return None


def _same_as_warmup(phi, out, rng, warm_out):
    return None if out == warm_out else "output differs from the warm-up op on the same input"


WORKLOADS = {
    "verify-1e4": dict(
        argv=lambda phi, cache: ["verify", "all", "--t-max", "1e4", "--format", "json",
                                 "--threads", "1", "--phi", repr(phi)],
        check=_verify_check, phi_per_op=True),
    # One phi per run: the warm-up op writes the run-private Gram-point
    # cache and every timed op reads it.  The warm-up output is checked
    # against mpmath; every later output must repeat it byte for byte,
    # including a one-thread op after the timed loop.
    "maxscan-1e5": dict(
        argv=lambda phi, cache: ["maxscan", "--t-max", "1e5", "--threads", "2",
                                 "--cache-dir", cache, "--phi", repr(phi)],
        check=_same_as_warmup, warmup_check=_maxscan_check, phi_per_op=False,
        threads_check=True),
    "certify-1e4": dict(
        argv=lambda phi, cache: ["resonate", "--x", "5e4", "--certificate",
                                 "--t-max", "1e4", "--format", "json", "--phi", repr(phi)],
        check=_certify_check, phi_per_op=True),
}


# ----------------------------------------------------------------------
# ops
# ----------------------------------------------------------------------

def run_op(cli, argv, phase, tracer=None, op_id=None):
    """Run one op; returns (record, captured stdout).  Only the call to
    cli.main is timed."""
    buf = io.StringIO()
    error = None
    if tracer is not None:
        tracer.op = op_id
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except (Exception, SystemExit) as exc:  # the op failed; the run goes on
        rc = None
        error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    if tracer is not None:
        tracer.op = None
    if error is None and rc != 0:
        error = f"exit code {rc}"
    out = buf.getvalue()
    return {"phase": phase, "argv": argv, "wall_s": wall, "cpu_s": cpu,
            "output_bytes": len(out.encode()), "error": error}, out


def check_op(record, out, check, phi, rng, warm_out=None):
    if record["error"] is None:
        try:
            record["error"] = check(phi, out, rng, warm_out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            record["error"] = f"output check raised {type(exc).__name__}: {exc}"
    if record["error"]:
        print(f"op failed: {' '.join(record['argv'])}: {record['error']}", file=sys.stderr)


def closed_loop(cli, wl, draw_phi, cache, seconds, ops, warm_out, tracer=None):
    """Run ops back to back until their summed wall time reaches
    `seconds` (at least one op) and return their wall times.  Output
    checks run between ops and are not counted.

    With a tracer, untraced and traced ops alternate until each kind
    has run for `seconds`, so that load drift on a shared machine does
    not enter the tracing overhead; returns both lists of wall times."""
    walls = {"timed": [], "traced": []}
    phases = ("timed", "traced") if tracer else ("timed",)
    while any(sum(walls[p]) < seconds or not walls[p] for p in phases):
        for phase in phases:
            phi = draw_phi()
            rec, out = run_op(cli, wl["argv"](phi, cache), phase,
                              tracer if phase == "traced" else None, len(ops))
            walls[phase].append(rec["wall_s"])
            check_op(rec, out, wl["check"], phi,
                     random.Random(f"rows/{len(ops)}/{phi!r}"), warm_out)
            ops.append(rec)
    return walls


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------

def library_versions() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                threads = fn()
                break
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads}


def address_space_peak_mb():
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmPeak:"):
                    return int(line.split()[1]) // 1024
    except OSError:
        pass
    return None


# ----------------------------------------------------------------------

def main(spec: dict) -> int:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    sys.path.insert(0, spec["src"])
    from zetagram import cli

    wl = WORKLOADS[spec["workload"]]
    rng = random.Random(f"{spec['workload']}/{spec['seed']}")
    run_phi = rng.uniform(0.0, math.pi)
    draw_phi = (lambda: rng.uniform(0.0, math.pi)) if wl["phi_per_op"] else (lambda: run_phi)
    cache = spec["cache_dir"]
    ops = []

    tracer = None
    if spec["trace"] and spec["role"] == "measure":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    warm, warm_out = run_op(cli, wl["argv"](run_phi, cache), "warmup", tracer, WARMUP_OP)
    warmup_end = time.monotonic()
    check_op(warm, warm_out, wl.get("warmup_check", wl["check"]), run_phi,
             random.Random(f"rows/warmup/{run_phi!r}"), warm_out)
    ops.append(warm)
    record = {"warmup_end": warmup_end, "ops": ops,
              "warmup_sha256": hashlib.sha256(warm_out.encode()).hexdigest()}

    if spec["role"] == "measure":
        walls = closed_loop(cli, wl, draw_phi, cache, spec["seconds"], ops, warm_out, tracer)
        if tracer:
            record["layers"] = layer_record(tracer, walls, ops, spec)
        if wl.get("threads_check"):
            # the same bytes with one thread as with two, once per run
            argv = wl["argv"](run_phi, cache)
            argv[argv.index("--threads") + 1] = "1"
            rec, out = run_op(cli, argv, "check")
            check_op(rec, out, _same_as_warmup, run_phi, None, warm_out)
            ops.append(rec)
        record["versions"] = library_versions()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["peak_address_space_mb"] = address_space_peak_mb()
    with open(spec["out"], "w") as fh:
        json.dump(record, fh)
    return 0


def layer_record(tracer, walls, ops, spec):
    """Per-layer metrics (per-op means over the traced ops); also writes
    the spans to a file."""
    from spans import accounting, layer_metrics

    warm = [s for s in tracer.spans if s.op == WARMUP_OP]
    traced = [s for s in tracer.spans if s.op != WARMUP_OP]
    metrics = layer_metrics(traced, len(walls["traced"]))
    # lazy caches fill during the warm-up op, so their cost shows there
    metrics["setup.divisor.stieltjes.s"] = sum(
        s.end - s.start for s in warm if s.name == "divisor.stieltjes")
    metrics["cli.output_bytes"] = statistics.fmean(
        r["output_bytes"] for r in ops if r["phase"] == "traced")
    metrics["trace.overhead_s"] = (statistics.median(walls["traced"])
                                   - statistics.median(walls["timed"]))
    with open(spec["trace_out"], "w") as fh:
        json.dump({"workload": spec["workload"], "seed": spec["seed"],
                   "spans": tracer.dump()}, fh)
    return {"metrics": metrics, "accounting": accounting(traced),
            "spans_file": os.path.relpath(spec["trace_out"], spec["root"])}


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
