"""In-memory span tracer for the traced benchmark run.

The tracer wraps zetagram's public functions from outside the program:
each wrapper is installed at every module attribute (and module-level
registry dict entry) that holds the original function, because the
modules bind names with ``from .x import y``.  Every call made while an
op is open records one span (name, start, end, parent id, op id,
thread).  Spans opened on ``bulk_hardy_z`` pool threads are parented to
the open ``grampoints.bulk_hardy_z`` span.

Per-layer metrics are derived from the spans after the run: self time
is a span's duration minus the union of its children's intervals, and
the work counts below are computed from each call's arguments and
result by the benchmark, never reported by the program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import os
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float
    thread: int
    counts: dict


# ----------------------------------------------------------------------
# work counts, computed from a call's bound arguments and its result
# ----------------------------------------------------------------------

def _hardy_z_counts(args, result, _):
    t = np.atleast_1d(np.asarray(args["t"], dtype=float))
    return {"points": int(t.size),
            "main_terms": int(np.floor(np.sqrt(t / TWO_PI)).sum())}


def _cache_files(args):
    """(size, mtime, inode) of each file in the call's cache directory."""
    path = args.get("cache_dir")
    if not path or not os.path.isdir(path):
        return {}
    return {e.name: (e.stat().st_size, e.stat().st_mtime_ns, e.stat().st_ino)
            for e in os.scandir(path)}


def _enumerate_counts(args, result, files_before):
    counts = {"points": len(result)}
    if args.get("cache_dir"):
        # a call that leaves the cache directory untouched was served from it
        hit = files_before == _cache_files(args)
        counts["cache_hits"] = int(hit)
        counts["cache_misses"] = int(not hit)
    return counts


def _evaluate_counts(args, result, _):
    return {"entries": int(np.size(args["t"])) * len(args["self"].coefficients)}


def _build_table_counts(args, result, _):
    return {"entries": int(args["limit"]),
            "key": repr((float(args["kappa"]), int(args["limit"])))}


def _convolve_counts(args, result, _):
    return {"key": repr((float(args["kappa"]), int(args["m"]), float(args["xi"])))}


def _blocked_fsum_counts(args, result, _):
    return {"elements": int(np.size(args["values"]))}


def _resonator_counts(args, result, _):
    return {"support": int(result.support.size)}


def _run_checks_counts(args, result, _):
    return {"failed": sum(not r.passed for r in result)}


class Target(NamedTuple):
    """A function to wrap: ``attr`` may name a method as "Class.method".
    ``stats`` lists the counts ``counter`` returns; ``before`` runs ahead
    of the call and hands its result to ``counter``; ``pool`` marks the
    span that parents spans opened on its thread pool."""

    module: str
    attr: str
    name: str
    counter: Callable | None = None
    stats: tuple = ()
    before: Callable | None = None
    pool: bool = False


#: Metrics are named "<span name>.<stat>".
TARGETS = (
    Target("cli", "main", "cli.main"),
    Target("cli", "cmd_verify", "cli.verify"),
    Target("cli", "cmd_maxscan", "cli.maxscan"),
    Target("cli", "cmd_resonate", "cli.resonate"),
    Target("special", "hardy_z", "special.hardy_z", _hardy_z_counts,
           ("points", "main_terms")),
    Target("special", "theta", "special.theta"),
    Target("grampoints", "enumerate_points", "grampoints.enumerate_points",
           _enumerate_counts, ("points", "cache_hits", "cache_misses"), _cache_files),
    Target("grampoints", "bulk_hardy_z", "grampoints.bulk_hardy_z", pool=True),
    Target("grampoints", "solve_gram", "grampoints.solve_gram"),
    Target("moments", "GramSweep.__init__", "moments.GramSweep"),
    Target("moments", "DirichletPolynomial.evaluate_half_line",
           "moments.evaluate_half_line", _evaluate_counts, ("entries",)),
    Target("moments", "compute_S1", "moments.compute_S1"),
    Target("moments", "compute_S2", "moments.compute_S2"),
    Target("moments", "moment_abs_2k", "moments.moment_abs_2k"),
    Target("moments", "moment_cubed", "moments.moment_cubed"),
    Target("moments", "theorem1_pipeline", "moments.theorem1_pipeline"),
    Target("moments", "signed_odd_moment", "moments.signed_odd_moment"),
    Target("moments", "max_scan", "moments.max_scan"),
    Target("divisor", "build_table", "divisor.build_table", _build_table_counts,
           ("entries",)),
    Target("divisor", "primes_up_to", "divisor.primes_up_to"),
    Target("divisor", "convolve_truncated", "divisor.convolve_truncated",
           _convolve_counts),
    Target("divisor", "divisor_partial_sum", "divisor.divisor_partial_sum"),
    Target("divisor", "divisor_ratio_sums_at", "divisor.divisor_ratio_sums_at"),
    Target("divisor", "stieltjes", "divisor.stieltjes"),
    Target("summation", "blocked_fsum", "summation.blocked_fsum",
           _blocked_fsum_counts, ("elements",)),
    Target("summation", "fsum", "summation.fsum"),
    Target("resonator", "build_resonator", "resonator.build_resonator",
           _resonator_counts, ("support",)),
    Target("resonator", "resonator_ratio", "resonator.resonator_ratio"),
    Target("resonator", "certify_lower_bound", "resonator.certify_lower_bound"),
    Target("verify", "run_checks", "verify.run_checks", _run_checks_counts,
           ("failed",)),
) + tuple(Target("verify", f"check_{c}", f"verify.check.{c}")
          for c in ("prop1", "thm2", "thm1", "cor1", "cor2", "divisor"))

MODULES = ("cli", "special", "grampoints", "moments", "divisor", "summation",
           "resonator", "verify")

#: Metrics whose value the benchmark derives from call arguments or
#: results rather than from a clock.
COMPUTED = {"points", "main_terms", "entries", "elements", "support",
            "distinct_ratio", "builds", "hits", "misses"}

#: Metric names that read better than "<span>.<counter>".
ALIASES = {
    "grampoints.cache.hits": "grampoints.enumerate_points.cache_hits",
    "grampoints.cache.misses": "grampoints.enumerate_points.cache_misses",
    "moments.GramSweep.builds": "moments.GramSweep.calls",
    "verify.criteria.failed": "verify.run_checks.failed",
}


class Tracer:
    """Collects spans while ``op`` is set; wrappers pass straight through
    otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pool_parent: int | None = None

    def wrap(self, target: Target, fn):
        name, counter, before, pool = target.name, target.counter, target.before, target.pool
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else self._pool_parent
            sid = next(self._ids)
            bound = state = None
            if counter:
                ba = sig.bind(*args, **kwargs)
                ba.apply_defaults()
                bound = ba.arguments
                state = before(bound) if before else None
            stack.append(sid)
            if pool:
                outer, self._pool_parent = self._pool_parent, sid
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if pool:
                    self._pool_parent = outer
            counts = counter(bound, result, state) if counter else {}
            self.spans.append(Span(sid, parent, op, name, start, end,
                                   threading.get_ident(), counts))
            return result

        return traced

    def install(self) -> None:
        """Replace every reference to each target in the zetagram modules."""
        mods = [importlib.import_module(f"zetagram.{m}") for m in MODULES]
        mods.append(importlib.import_module("zetagram"))
        for t in TARGETS:
            owner = importlib.import_module(f"zetagram.{t.module}")
            if "." in t.attr:
                cls_name, meth = t.attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(t, cls.__dict__[meth]))
                continue
            orig = getattr(owner, t.attr)
            wrapped = self.wrap(t, orig)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is orig:
                                value[k] = wrapped

    def dump(self) -> list:
        return [asdict(s) for s in self.spans]


def self_times(spans) -> tuple[dict, float]:
    """({span id: self seconds}, pool overlap seconds).

    The overlap is the child time that runs concurrently on pool
    threads: summed self time equals root wall time plus this overlap.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out, overlap = {}, 0.0
    for s in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        intervals = sorted(children.get(s.id, ()))
        for lo, hi in intervals:
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = (s.end - s.start) - covered
        overlap += sum(hi - lo for lo, hi in intervals) - covered
    return out, overlap


def layer_metrics(spans, n_ops: int) -> dict:
    """Per-op means of every span's self time, inclusive time, calls and
    counts, plus the derived rates and ratios."""
    self_s, _ = self_times(spans)
    totals = {t.name: dict.fromkeys(("self_s", "s", "calls") + t.stats, 0.0)
              for t in TARGETS}
    keys = defaultdict(lambda: defaultdict(list))  # name -> op -> argument keys
    for s in spans:
        tot = totals[s.name]
        tot["self_s"] += self_s[s.id]
        tot["s"] += s.end - s.start
        tot["calls"] += 1
        for k, v in s.counts.items():
            if k == "key":
                keys[s.name][s.op].append(v)
            else:
                tot[k] += v
    m = {f"{n}.{stat}": v / n_ops for n, tot in totals.items() for stat, v in tot.items()}
    for n in ("divisor.build_table", "divisor.convolve_truncated"):
        ratios = [len(set(k)) / len(k) for k in keys[n].values()]
        m[f"{n}.distinct_ratio"] = sum(ratios) / len(ratios) if ratios else 0.0
    for n, work, rate in (("special.hardy_z", "points", "points_per_s"),
                          ("moments.evaluate_half_line", "entries", "entries_per_s")):
        t = totals[n]["self_s"]
        m[f"{n}.{rate}"] = totals[n][work] / t if t > 0 else 0.0
    m["grampoints.bulk_hardy_z.parallel_eff"] = _parallel_efficiency(spans)
    for alias, source in ALIASES.items():
        m[alias] = m[source]
    return m


def _parallel_efficiency(spans) -> float:
    """Summed child hardy_z busy time / (threads x bulk_hardy_z wall)."""
    kids = defaultdict(list)
    for s in spans:
        if s.name == "special.hardy_z" and s.parent is not None:
            kids[s.parent].append(s)
    busy = capacity = 0.0
    for s in spans:
        if s.name == "grampoints.bulk_hardy_z":
            ks = kids.get(s.id, [])
            busy += sum(k.end - k.start for k in ks)
            capacity += max(1, len({k.thread for k in ks})) * (s.end - s.start)
    return busy / capacity if capacity > 0 else 0.0


def accounting(spans) -> list:
    """Per op: (root wall, summed self time, pool overlap)."""
    by_op = defaultdict(list)
    for s in spans:
        by_op[s.op].append(s)
    rows = []
    for op, group in sorted(by_op.items()):
        st, overlap = self_times(group)
        root = sum(s.end - s.start for s in group if s.parent is None)
        rows.append((root, sum(st.values()), overlap))
    return rows
