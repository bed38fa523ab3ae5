"""Report bytes of two revisions side by side: a fixed set of zetagram
commands runs in an export of each, and each command's standard output
is compared by sha256; for a command whose bytes differ, the number of
lines that differ and the largest relative difference of the numbers
they pair are printed, and the first lines that differ are shown from
both sides.

    python3 tools/report_bytes.py --parent HEAD~1 --change HEAD

Run from the root of a git checkout.  Each revision is exported with
`bench_pairs.export` (git archive), so only committed files run, each
command in a fresh interpreter with the export's src/ on PYTHONPATH.
Prints both sides' sha256 and exit status for every command.  Where they
differ it prints the count of differing lines (paired by position), the
largest |a - b| / max(|a|, |b|) over the numbers of those lines (paired
by position within a line, where both lines hold as many) with where it
occurs, the count of differing lines whose numbers do not pair, and up to
SHOWN_LINES of the lines.  Exits 1 if any command differs.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import export

COMMANDS = (
    *(("verify", "all", "--t-max", "1e4", "--format", "json", "--phi", phi)
      for phi in ("0", "0.3", "2.9")),
    ("verify", "thm1", "--t-max", "1e4"),
    *(("resonate", "--x", "5e4", "--certificate", "--t-max", "1e4", "--format", "json",
       "--phi", phi) for phi in ("0", "0.3")),
    ("resonate", "--x", "1e6", "--certificate", "--t-max", "1e5"),
    *(("maxscan", "--t-max", "1e5", "--threads", threads) for threads in ("1", "2")),
    *(("points", "--t-max", "1e4", "--format", fmt) for fmt in ("csv", "json")),
    # the one command that reaches Euler-Maclaurin Z below t = 10 (n = 0 at t = 9.856)
    ("points", "--t-max", "100", "--phi", "3.1"),
    ("verify", "thm2", "--t-max", "1e5"),
    ("divisor", "--kappa", "3", "--partial-sum", "1e6"),
    ("divisor", "--kappa", "2.7", "--partial-sum", "700001", "--format", "json"),
    ("divisor", "--kappa", "2.7", "--limit", "600000"),
)


#: Differing lines shown for each command whose bytes differ.
SHOWN_LINES = 5

#: A decimal number as the reports print one, with sign and exponent.
NUMBER = re.compile(r"[-+]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?")


def run(checkout: Path, command) -> tuple:
    """(standard output, exit status) of one command."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    proc = subprocess.run([sys.executable, "-m", "zetagram.cli", *command], cwd=checkout,
                          env=env, capture_output=True)
    return proc.stdout, proc.returncode


def differing_lines(parent: bytes, change: bytes) -> list:
    """(line number, parent line, change line) for every line that
    differs, paired by position; a missing line is empty."""
    pairs = itertools.zip_longest(parent.decode(errors="replace").splitlines(),
                                  change.decode(errors="replace").splitlines(), fillvalue="")
    return [(i, a, b) for i, (a, b) in enumerate(pairs, 1) if a != b]


def summarize(lines: list) -> dict:
    """For the differing lines of differing_lines: their count, the count
    of those whose numbers do not pair (the two lines hold different
    counts of numbers), and the largest relative difference
    |a - b| / max(|a|, |b|) over the paired numbers of the others, as
    (difference, line number, parent number, change number), or None
    where no numbers pair."""
    unpaired, largest = 0, None
    for i, a, b in lines:
        nums = NUMBER.findall(a), NUMBER.findall(b)
        if len(nums[0]) != len(nums[1]):
            unpaired += 1
            continue
        for x, y in zip(*nums):
            fx, fy = float(x), float(y)
            rel = abs(fx - fy) / max(abs(fx), abs(fy)) if fx != fy else 0.0
            if largest is None or rel > largest[0]:
                largest = (rel, i, x, y)
    return {"lines": len(lines), "unpaired": unpaired, "largest": largest}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision of the change")
    args = parser.parse_args(argv)

    work = Path(tempfile.mkdtemp(prefix="report-bytes-"))
    differ = 0
    try:
        sides = {"parent": export(args.parent, work / "parent"),
                 "change": export(args.change, work / "change")}
        for command in COMMANDS:
            got = {side: run(path, command) for side, path in sides.items()}
            same = got["parent"] == got["change"]
            differ += not same
            print(f"{'same' if same else 'DIFFERS'}: zetagram {' '.join(command)}")
            for side, (out, status) in got.items():
                print(f"  {side}: {hashlib.sha256(out).hexdigest()} exit {status}")
            if same:
                continue
            lines = differing_lines(got["parent"][0], got["change"][0])
            summary = summarize(lines)
            print(f"  {summary['lines']} lines differ, {summary['unpaired']} of them with unpaired numbers")
            if summary["largest"]:
                rel, line, parent, change = summary["largest"]
                print(f"  largest relative difference {rel:.3g}, line {line}: {parent} -> {change}")
            for line, parent, change in lines[:SHOWN_LINES]:
                print(f"  line {line}:\n    parent: {parent}\n    change: {change}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(COMMANDS) - differ} of {len(COMMANDS)} commands byte-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
