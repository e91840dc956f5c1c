"""Line census: the executable lines of ``src/qfoundry`` that the test suite never runs.

    PYTHONPATH=src python tests/census.py

Runs the Tier-1 suite in this process under ``sys.settrace`` and
``threading.settrace``; a module's executable lines are the line numbers of
its code objects' ``co_lines()``.  Prints each line no test ran, by module.
Exits 1 if such a line is not in ``EXEMPT``, or if an exemption matches no
unrun line, so that the list stays current; exits with pytest's status if
the suite fails.  Lines that run only in child processes count as not run.
"""

import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qfoundry"

TYPE_CHECKING_IMPORT = "a TYPE_CHECKING import, for annotations only"
MINIMIZE = "inequalities.minimize is the benchmark tracer's hook; it goes when scipy is dropped"

# (module file, line text) -> why no test runs it
EXEMPT = {
    ("cli.py", "from .qcore import MeasurementSetting, StateVector"): TYPE_CHECKING_IMPORT,
    ("hvmodels.py", "from fractions import Fraction"): TYPE_CHECKING_IMPORT,
    ("cli.py", "sys.exit(main())"): "runs only when cli.py is the __main__ script, in a child process",
    ("inequalities.py", "from scipy.optimize import minimize as scipy_minimize"): MINIMIZE,
    ("inequalities.py", "return scipy_minimize(fun, x0, **kwargs)"): MINIMIZE,
}


def executable_lines(code):
    """Line numbers of ``code`` and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def main():
    os.chdir(ROOT)
    files = {str(path): path for path in sorted(SRC.glob("*.py"))}
    ran = {name: set() for name in files}

    def trace(frame, event, arg):
        lines = ran.get(frame.f_code.co_filename)
        if lines is not None:
            lines.add(frame.f_lineno)
            return trace

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        return status
    failures, used = 0, set()
    for name, path in files.items():
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(compile("\n".join(text), name, "exec")) - ran[name]):
            key = (path.name, text[line - 1].strip())
            used.add(key)
            failures += key not in EXEMPT
            print(f"{path.name}:{line}: {key[1]}  [{EXEMPT.get(key, 'NOT EXEMPT')}]")
    for module, line_text in EXEMPT.keys() - used:
        failures += 1
        print(f"{module}: stale exemption, no unrun line reads {line_text!r}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
