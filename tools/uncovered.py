"""List the lines of ``src/oversmooth`` that the test suite never runs.

    python tools/uncovered.py

Runs ``pytest tests`` in this interpreter under the stdlib ``trace`` module,
so it needs nothing beyond pytest itself. Then it prints one
``path:line  source`` entry for every executable line of ``src/oversmooth``
that no test executed, followed by pytest's failure lines and its summary
line. It reports and does not judge: tracing slows every test several
times over, so a test that times itself can fail here and pass untraced,
and the script exits 0 whatever pytest says.
"""

from __future__ import annotations

import contextlib
import io
import sys
import trace
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "oversmooth"


def _executable_lines(path: Path) -> set[int]:
    # Every line that starts an instruction in the module or in any code
    # object nested in it.
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main() -> int:
    # No ignoredirs: trace caches its verdict by module basename, so ignoring
    # site-packages would also hide the package's own __init__.py.
    tracer = trace.Trace(count=1, trace=0)
    output = io.StringIO()
    with contextlib.redirect_stdout(output):
        tracer.runfunc(pytest.main, ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    ran: dict[str, set[int]] = {}
    for filename, line in tracer.results().counts:
        ran.setdefault(str(Path(filename).resolve()), set()).add(line)
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        missed = _executable_lines(path) - ran.get(str(path), set())
        for line in sorted(missed):
            print(f"{path.relative_to(ROOT).as_posix()}:{line}  {source[line - 1].strip()}")
    report = output.getvalue().splitlines()
    for line in report:
        if line.startswith(("FAILED ", "ERROR ")):
            print(line)
    print(next((line for line in reversed(report) if line.strip()), "no pytest summary"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
