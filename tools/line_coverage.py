"""The statements of src/zetagram that a pytest run never executes.

    python3 tools/line_coverage.py [PYTEST ARGS ...]

Run from anywhere; the arguments go to pytest, and without any it runs
the whole suite.  pytest runs in a child process whose PYTHONPATH
starts with a temporary directory holding a `sitecustomize` module, so
every Python process of the run imports it at start-up: the test
process, and each subprocess that the tests start with the inherited
environment (a child given a PYTHONPATH of its own is not traced).  It
installs a line tracer with `sys.settrace` and `threading.settrace`
that follows the frames of src/zetagram only, and at exit writes the
lines it saw to a file of its process.  It needs nothing beyond the
standard library.

Prints one line per statement that no process executed, in file and
line order, as `src/zetagram/<module>.py:<line>: <source>`.  A
statement counts as executed if any line from its start to its end (for
a compound statement, to the end of its header) was.  Imports,
docstrings and the headers of functions and classes are not listed:
they run when the module is imported.  pytest's own output goes to
standard error, with a last line that counts the statements.  The exit
code is 0 when pytest ran, whether or not its tests passed (a tracer
slows the timed tests), and pytest's exit code otherwise.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "zetagram"

#: The sitecustomize module of the traced processes; {prefix} is the
#: package's directory and {out} the directory of the line files.
TRACER = '''\
import atexit, os, sys, threading

_PREFIX, _OUT = {prefix!r}, {out!r}
_SEEN, _MINE = set(), {{}}


def _line(frame, event, arg):
    if event == "line":
        _SEEN.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    mine = _MINE.get(name)
    if mine is None:
        mine = _MINE[name] = os.path.abspath(name).startswith(_PREFIX)
    return _line if mine else None


def _dump():
    with open(os.path.join(_OUT, f"{{os.getpid()}}.lines"), "w") as fh:
        fh.writelines(f"{{os.path.abspath(f)}}\\t{{n}}\\n" for f, n in _SEEN)


sys.settrace(_call)
threading.settrace(_call)
atexit.register(_dump)
'''


def statements(path: Path) -> list:
    """(first, last) line of each statement of the file that the listing
    considers, ascending; for a compound statement last ends its header."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.stmt) or isinstance(
                node, (ast.Import, ast.ImportFrom, ast.FunctionDef, ast.AsyncFunctionDef,
                       ast.ClassDef)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        out.append((node.lineno, max(node.lineno, last)))
    return sorted(out)


def read_lines(out_dir: Path) -> set:
    """The (absolute file name, line) pairs that the traced processes saw."""
    seen = set()
    for name in out_dir.glob("*.lines"):
        for row in name.read_text().splitlines():
            path, line = row.rsplit("\t", 1)
            seen.add((path, int(line)))
    return seen


def unexecuted(seen: set) -> list:
    """`file:line: source` for each statement of the package none of whose
    lines is in seen."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        name = str(path)
        for first, last in statements(path):
            if not any((name, n) in seen for n in range(first, last + 1)):
                out.append(f"{path.relative_to(ROOT)}:{first}: {source[first - 1].strip()}")
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    with tempfile.TemporaryDirectory(prefix="line-coverage-") as tmp:
        tmp = Path(tmp)
        out_dir = tmp / "lines"
        out_dir.mkdir()
        (tmp / "sitecustomize.py").write_text(
            TRACER.format(prefix=str(PACKAGE) + os.sep, out=str(out_dir)))
        path = [str(tmp), str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        rc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                             *argv], cwd=ROOT, env=env, stdout=sys.stderr).returncode
        seen = read_lines(out_dir)
        processes = len(list(out_dir.glob("*.lines")))
    missed = unexecuted(seen)
    sys.stdout.writelines(line + "\n" for line in missed)
    print(f"{len(missed)} statements never executed; {processes} processes traced; "
          f"pytest exited {rc}", file=sys.stderr)
    return 0 if rc in (0, 1) else rc


if __name__ == "__main__":
    sys.exit(main())
