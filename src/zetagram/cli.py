"""Command-line front end: point export, verification runs, maxima
scans, resonator builds, and divisor-table dumps.

Output bytes are deterministic: floats are printed with shortest
round-trip repr, JSON keys are sorted, and wall-clock fields are
excluded from reports unless explicitly requested with --stamp.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import sys
import time

import numpy as np

from . import __version__, divisor, moments, resonator, verify
from .grampoints import Angle
from .special import BLOCK_POINTS, DomainError, InvariantError, theta
from .verify import run_checks

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


@dataclasses.dataclass
class RunConfig:
    phi: float = 0.0
    t_max: float = 1e4
    threads: int = 1
    cache_dir: str | None = None
    format: str = "csv"
    output: str | None = None
    stamp: bool = False

    def __post_init__(self):
        Angle(self.phi)  # the canonical phi test and message
        if not 0.0 < self.t_max < math.inf:
            raise DomainError(f"t_max must be finite and positive, got {self.t_max!r}")
        if self.threads < 1:
            raise DomainError("threads must be >= 1")
        if self.format not in ("csv", "json"):
            raise DomainError("format must be csv or json")

    def sweep(self) -> moments.GramSweep:
        return moments.GramSweep(self.phi, self.t_max, cache_dir=self.cache_dir,
                                 threads=self.threads)

    def stream(self) -> moments.SweepStream:
        return moments.SweepStream(self.phi, self.t_max, cache_dir=self.cache_dir,
                                   threads=self.threads)

    def semantic_hash(self) -> str:
        # threads, cache location and output format do not affect the numbers
        payload = "\n".join([
            f"phi={self.phi!r}",
            f"t_max={self.t_max!r}",
            f"version={__version__}",
        ])
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _read_config_file(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"bad config line: {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key] = value
    return out


_CONFIG_TYPES = {
    "phi": float, "t_max": float, "threads": int, "cache_dir": str,
    "format": str, "output": str, "stamp": lambda v: v.lower() in ("1", "true", "yes"),
}


def _build_runconfig(args) -> RunConfig:
    values = {}
    if getattr(args, "config", None):
        for key, raw in _read_config_file(args.config).items():
            if key not in _CONFIG_TYPES:
                raise DomainError(f"unknown config key {key!r}")
            values[key] = _CONFIG_TYPES[key](raw)
    for key in _CONFIG_TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return RunConfig(**values)


def _emit(text, output: str | None) -> None:
    """Write a string, or an iterable's strings one by one so no large report is held whole."""
    chunks = (text,) if isinstance(text, str) else text
    if output:
        with open(output, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _json_with_list(payload: dict, blocks):
    """_dump_json(payload), a block at a time.  The key of payload that
    sorts last holds None, which stands for the list of the items in
    blocks: iterables of items already formatted at the list's indent."""
    head = _dump_json(payload)
    yield head[:-len("null\n}\n")] + "["
    sep = "\n    "
    for text in map(",\n    ".join, blocks):
        yield sep
        yield text
        del text  # written: not held while the next block is joined
        sep = ",\n    "
    yield "\n  ]\n}\n"


def _point_rows(blk):
    """Rows (n, t, zeta_re, zeta_im, z, sign) of one block of a sweep."""
    zeta = np.exp(-1j * theta(blk.t)) * blk.z
    sign = np.where(blk.plus, "+", "-")
    return zip(blk.n.tolist(), blk.t.tolist(), zeta.real.tolist(), zeta.imag.tolist(),
               blk.z.tolist(), sign.tolist())


def cmd_points(cfg: RunConfig) -> int:
    blocks = cfg.stream().blocks()
    # the first block is classified and checked before any output is written;
    # a check that fails in a later block ends the report where it stands
    blocks = itertools.chain([next(blocks)], blocks)
    phi = repr(cfg.phi)
    # one block's rows at a time, formatted inside a call so that none
    # outlives its text
    if cfg.format == "json":
        def items(blk):
            return [f'{{\n      "n": {n},\n      "phi": {phi},\n      "sign": "{sign}",\n'
                    f'      "t": {t!r},\n      "z": {z!r},\n      "zeta_im": {zi!r},\n'
                    f'      "zeta_re": {zr!r}\n    }}'
                    for n, t, zr, zi, z, sign in _point_rows(blk)]

        _emit(_json_with_list({"metadata": _metadata(cfg), "points": None}, map(items, blocks)),
              cfg.output)
    else:
        def text(blk):
            return "".join(f"{n},{phi},{t!r},{zr!r},{zi!r},{z!r},{sign}\n"
                           for n, t, zr, zi, z, sign in _point_rows(blk))

        _emit(itertools.chain(["n,phi,t,zeta_re,zeta_im,z,sign\n"], map(text, blocks)), cfg.output)
    return EXIT_OK


def _metadata(cfg: RunConfig) -> dict:
    meta = {"version": __version__, "config_hash": cfg.semantic_hash(),
            "phi": cfg.phi, "t_max": cfg.t_max}
    if cfg.stamp:
        meta["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    return meta


def _exponents_from_flags(args) -> list | None:
    """Map --p/--q (or a rational --k) to pipeline exponents."""
    p, q, k = getattr(args, "p", None), getattr(args, "q", None), getattr(args, "k", None)
    if p is not None or q is not None:
        if p is None or q is None:
            raise DomainError("--p and --q must be given together")
        return [(int(p), int(q))]
    if k is not None:
        if not math.isfinite(k):
            raise DomainError("--k must be a finite rational >= 1")
        from fractions import Fraction
        frac = Fraction(k).limit_denominator(64)
        if abs(float(frac) - k) > 1e-12 or frac < 1:
            raise DomainError("--k must be a rational >= 1 (or use --p/--q)")
        return [(frac.numerator, frac.denominator)]
    return None


def cmd_verify(cfg: RunConfig, which: str, exponents=None) -> int:
    results = run_checks(which, cfg.phi, cfg.t_max, threads=cfg.threads,
                         cache_dir=cfg.cache_dir, exponents=exponents)
    bundle = {
        "metadata": _metadata(cfg),
        "criteria": [{"name": r.name, "passed": r.passed,
                      "details": r.details} for r in results],
        "all_passed": all(r.passed for r in results),
    }
    if cfg.format == "json":
        _emit(_dump_json(bundle), cfg.output)
    else:
        lines = ["name,passed,details"]
        for r in results:
            detail = ";".join(f"{k}={_fmt_detail(v)}" for k, v in sorted(r.details.items()))
            lines.append(f"{r.name},{int(r.passed)},{detail}")
        _emit("\n".join(lines) + "\n", cfg.output)
    return EXIT_OK if bundle["all_passed"] else EXIT_CHECK_FAILED


def _fmt_detail(v):
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return "[" + " ".join(_fmt_detail(x) for x in v) + "]"
    return str(v)


def cmd_maxscan(cfg: RunConfig) -> int:
    sweep = cfg.stream()
    n_checkpoints = max(2, int(math.log10(max(cfg.t_max / 100.0, 10.0)) * 3))
    checkpoints = np.geomspace(max(100.0, cfg.t_max / 1000.0), cfg.t_max, n_checkpoints)
    columns = ("T", "count", "max_plus", "argmax_plus", "max_minus", "argmax_minus",
               "logT_5_4", "logT_3_2", "ratio_plus_5_4", "ratio_minus_5_4")
    lines = [",".join(columns)]
    rows = []
    for cp, best in zip(checkpoints, moments.class_maxima(sweep, checkpoints)):
        row = {"T": float(cp), **dataclasses.asdict(best)}
        lt = math.log(cp)
        row["logT_5_4"] = lt ** 1.25
        row["logT_3_2"] = lt ** 1.5
        row["ratio_plus_5_4"] = (row["max_plus"] / lt ** 1.25) if row["max_plus"] else None
        row["ratio_minus_5_4"] = (row["max_minus"] / lt ** 1.25) if row["max_minus"] else None
        rows.append(row)
        lines.append(",".join("" if row[key] is None else repr(row[key]) for key in columns))
    if cfg.format == "json":
        _emit(_dump_json({"metadata": _metadata(cfg), "scan": rows}), cfg.output)
    else:
        _emit("\n".join(lines) + "\n", cfg.output)
    return EXIT_OK


def cmd_resonate(cfg: RunConfig, cutoff: float, with_certificate: bool) -> int:
    res = resonator.build_resonator(cutoff)
    ratio = resonator.resonator_ratio(res)
    summary = {
        "metadata": _metadata(cfg),
        "cutoff": res.config.X,
        "L": res.config.L,
        "prime_lo": res.config.prime_lo,
        "prime_hi": res.config.prime_hi,
        "support_size": int(res.support.size),
        "ratio": ratio,
        "sum_f_squared": res.sum_f_squared,
    }
    if with_certificate:
        cert = resonator.certify_lower_bound(cfg.sweep(), res)
        summary["certificate"] = {key: getattr(cert, key) for key in (
            "certified_bound", "scanned_max", "degenerate_direction")}
    if cfg.format == "json":
        _emit(_dump_json(summary), cfg.output)
    else:
        blocks = ("".join(f"{n},{w!r}\n" for n, w in zip(res.support[a:a + BLOCK_POINTS].tolist(),
                                                          res.weights[a:a + BLOCK_POINTS].tolist()))
                  for a in range(0, res.support.size, BLOCK_POINTS))
        tail = [f"# ratio={ratio!r} sum_f_squared={res.sum_f_squared!r}\n"]
        if with_certificate:
            tail.append("# " + " ".join(f"{key}={_fmt_detail(value)}"
                                        for key, value in summary["certificate"].items()) + "\n")
        _emit(itertools.chain(["n,f\n"], blocks, tail), cfg.output)
    return EXIT_OK


def cmd_divisor(cfg: RunConfig, kappa: float, limit: int, partial: float | None) -> int:
    if partial is not None:
        total, pred = divisor.divisor_partial_sum(kappa, partial)
        payload = {"metadata": _metadata(cfg), "kappa": kappa, "x": partial,
                   "sum": total, "predicted": pred,
                   "rel_error": None if pred is None else abs(total - pred) / total}
        if cfg.format == "json":
            _emit(_dump_json(payload), cfg.output)
        else:
            _emit(f"kappa,x,sum,predicted\n{kappa!r},{partial!r},{total!r},"
                  f"{'' if pred is None else repr(pred)}\n", cfg.output)
        return EXIT_OK
    # the sieve checks its arguments here, before any output is opened
    segments = divisor._sieve_segments(kappa, limit)
    _emit(_divisor_dump(cfg, kappa, segments), cfg.output)
    return EXIT_OK


def _divisor_dump(cfg: RunConfig, kappa: float, segments):
    """The d_kappa table as text, one sieve segment at a time."""
    if cfg.format == "json":
        yield from _json_with_list({"metadata": _metadata(cfg), "kappa": kappa, "values": None},
                                   (map(repr, seg.tolist()) for seg in segments))
    else:
        yield "n,d_kappa\n"
        lo = 1
        for seg in segments:
            yield "".join(f"{n},{v!r}\n" for n, v in enumerate(seg.tolist(), lo))
            lo += seg.size


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--phi", type=float, default=None,
                        help="direction angle in [0, pi)")
    parser.add_argument("--t-max", dest="t_max", type=float, default=None,
                        help="height cutoff T")
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    parser.add_argument("--cache-dir", dest="cache_dir", default=None)
    parser.add_argument("--config", default=None,
                        help="flat key=value config file; flags override")
    parser.add_argument("--output", "-o", default=None,
                        help="write to file instead of stdout")
    parser.add_argument("--stamp", action="store_true", default=None,
                        help="include a wall-clock timestamp in the metadata")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetagram",
        description="Critical-line zeta, generalized Gram points, and "
                    "discrete-moment verification")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_points = sub.add_parser("points", help="enumerate and classify Gram points")
    _add_common(p_points)

    p_verify = sub.add_parser("verify", help="run named verification checks")
    p_verify.add_argument("which", choices=list(verify.CHECK_NAMES) + ["all"])
    p_verify.add_argument("--k", type=float, default=None,
                          help="rational exponent for the lower-bound pipeline")
    p_verify.add_argument("--p", type=int, default=None,
                          help="exponent numerator (with --q)")
    p_verify.add_argument("--q", type=int, default=None,
                          help="exponent denominator (with --p)")
    _add_common(p_verify)

    p_max = sub.add_parser("maxscan", help="running maxima per sign class")
    _add_common(p_max)

    p_res = sub.add_parser("resonate", help="build a resonator and report its ratio")
    p_res.add_argument("--x", dest="cutoff", type=float, default=1e4,
                       help="coefficient cutoff X")
    p_res.add_argument("--certificate", action="store_true",
                       help="also certify the lower bound at (phi, t_max)")
    _add_common(p_res)

    p_div = sub.add_parser("divisor", help="divisor tables and partial sums")
    p_div.add_argument("--kappa", type=float, default=1.0)
    p_div.add_argument("--limit", type=int, default=100)
    p_div.add_argument("--partial-sum", dest="partial", type=float, default=None,
                       help="report sum_{n<=x} d_kappa(n) against its main term")
    _add_common(p_div)
    return parser


def main(argv=None) -> int:
    """Run one command line (sys.argv[1:] when argv is None) and return
    its exit code: EXIT_USAGE for bad input (a DomainError or other
    ValueError, or an OSError), EXIT_CHECK_FAILED for a failed criterion
    or an InvariantError, each error with one "error:" line on stderr.
    The parser is built once per process, so a long-lived caller gains
    about 1.5 ms per call."""
    args = build_parser().parse_args(argv)  # its subcommand is required
    try:
        cfg = _build_runconfig(args)
        if args.command == "points":
            return cmd_points(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, args.which, _exponents_from_flags(args))
        if args.command == "maxscan":
            return cmd_maxscan(cfg)
        if args.command == "resonate":
            return cmd_resonate(cfg, args.cutoff, args.certificate)
        return cmd_divisor(cfg, args.kappa, args.limit, args.partial)  # the one left
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
