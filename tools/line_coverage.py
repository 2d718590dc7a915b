"""List the lines of the package that a test run never executes.

    python tools/line_coverage.py [PYTEST_ARGS...]

Runs ``pytest.main(PYTEST_ARGS)`` in this process with a line tracer
(``sys.settrace`` and ``threading.settrace``) installed when pytest is
configured.  The tracer follows only frames whose code lies under
``src/triccati`` of the checkout holding this script.  After the run it
prints every executable line of the package that never ran, as
``path:line: source``, then their count, and exits with pytest's status.
A line is executable when some code object of its module, nested ones
included, maps an instruction to it (``co_lines``).  Code that runs in a
subprocess is not seen, so a test that only runs the command line in a
child process covers nothing here.

It needs only the standard library's tracer, which slowed the whole suite
by 1-27% over two runs on a shared 2-vCPU machine.  From the repository
root:

    PYTHONPATH=src python tools/line_coverage.py -q -p no:cacheprovider
"""

import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "triccati")

_ran = {}  # absolute path -> line numbers executed
_ours = {}  # co_filename -> its set in _ran, or None outside the package


def _lines_of(filename):
    if filename not in _ours:
        path = os.path.abspath(filename)
        inside = path.startswith(PACKAGE + os.sep)
        _ours[filename] = _ran.setdefault(path, set()) if inside else None
    return _ours[filename]


def _trace(frame, event, arg):
    seen = _lines_of(frame.f_code.co_filename)
    if seen is None:
        return None
    seen.add(frame.f_lineno)

    def local(frame, event, arg):
        if event == "line":
            seen.add(frame.f_lineno)
        return local

    return local


class _Tracer:
    def pytest_configure(self, config):
        threading.settrace(_trace)
        sys.settrace(_trace)


def _executable(code):
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _executable(const)
    return lines


def missed():
    """(path, line, source) of every executable package line not run."""
    out = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as f:
            source = f.read()
        text = source.splitlines()
        ran = _ran.get(path, set())
        for line in sorted(_executable(compile(source, path, "exec")) - ran):
            out.append((os.path.relpath(path, ROOT), line,
                        text[line - 1].strip()))
    return out


def main():
    status = pytest.main(sys.argv[1:], plugins=[_Tracer()])
    sys.settrace(None)
    threading.settrace(None)
    lines = missed()
    for path, line, source in lines:
        print("%s:%d: %s" % (path, line, source))
    print("%d executable lines never ran" % len(lines))
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
