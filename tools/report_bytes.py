"""Report bytes of two revisions side by side: a fixed set of zetagram
commands runs in an export of each, and each command's standard output
is compared by sha256, and for a command whose bytes differ the first
lines that differ are shown from both sides.

    python3 tools/report_bytes.py --parent HEAD~1 --change HEAD

Run from the root of a git checkout.  Each revision is exported with
`bench_pairs.export` (git archive), so only committed files run, each
command in a fresh interpreter with the export's src/ on PYTHONPATH.
Prints both sides' sha256 and exit status for every command, with up to
SHOWN_LINES differing lines (paired by position) where they differ, and
exits 1 if any of them differs.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import os
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
    ("verify", "thm2", "--t-max", "1e5"),
    ("divisor", "--kappa", "3", "--partial-sum", "1e6"),
    ("divisor", "--kappa", "2.7", "--partial-sum", "700001", "--format", "json"),
)


#: Differing lines shown for each command whose bytes differ.
SHOWN_LINES = 5


def run(checkout: Path, command) -> tuple:
    """(standard output, exit status) of one command."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    proc = subprocess.run([sys.executable, "-m", "zetagram.cli", *command], cwd=checkout,
                          env=env, capture_output=True)
    return proc.stdout, proc.returncode


def differing_lines(parent: bytes, change: bytes) -> list:
    """(line number, parent line, change line) for the first SHOWN_LINES
    lines that differ, paired by position; a missing line is empty."""
    pairs = itertools.zip_longest(parent.decode(errors="replace").splitlines(),
                                  change.decode(errors="replace").splitlines(), fillvalue="")
    differ = ((i, a, b) for i, (a, b) in enumerate(pairs, 1) if a != b)
    return list(itertools.islice(differ, SHOWN_LINES))


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
            for line, parent, change in differing_lines(got["parent"][0], got["change"][0]):
                print(f"  line {line}:\n    parent: {parent}\n    change: {change}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(COMMANDS) - differ} of {len(COMMANDS)} commands byte-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
