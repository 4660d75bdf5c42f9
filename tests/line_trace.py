"""Run the test suite under a line trace of src/extremal_poly and check
that every executable line ran, except those on an allowlist.

    PYTHONPATH=src python tests/line_trace.py [pytest arguments]

The executable lines of each module are the line numbers of its code
objects' co_lines(), so a line without bytecode of its own (the "if ("
of a condition split over lines, a comment, a docstring) is never
counted. The trace is sys.settrace and threading.settrace, installed
before the package is imported, so module-level lines count too.

The allowlist (line_trace_allow.json, beside this file) names a line by
its module file and its stripped source text, with a one-line reason; a
text that several lines share excuses those of them that never ran. The
check fails when a line not on it never ran, when every line of a listed
text ran, or when a listed text names no executable line of its file.
Line tables differ across Python versions; the allowlist is kept for
Python 3.11.
"""

import json
import pathlib
import sys
import threading
import types

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_PACKAGE = _ROOT / "src" / "extremal_poly"
_ALLOWLIST = pathlib.Path(__file__).resolve().with_name("line_trace_allow.json")


def executable_lines(path: pathlib.Path) -> set[int]:
    """Line numbers that carry bytecode in the module at path."""
    todo = [compile(path.read_text(), str(path), "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def load_allowlist() -> list[dict]:
    return json.loads(_ALLOWLIST.read_text())


def check(ran: dict[str, set[int]], allowlist: list[dict]) -> list[str]:
    """The complaints about one trace: ran maps a module file name to
    the lines that ran in it."""
    complaints = []
    listed = {}
    for entry in allowlist:
        listed.setdefault(entry["file"], set()).add(entry["line"])
    for path in sorted(_PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        by_text = {}
        for n in executable_lines(path):
            by_text.setdefault(text[n - 1].strip(), set()).add(n)
        did_run = ran.get(path.name, set())
        allowed = listed.pop(path.name, set())
        for source, lines in sorted(by_text.items(), key=lambda item: min(item[1])):
            missed = sorted(lines - did_run)
            if source not in allowed:
                complaints += ["%s:%d never ran: %s" % (path.name, n, source) for n in missed]
            elif not missed:
                complaints.append("%s:%d listed but ran: %s" % (path.name, min(lines), source))
        complaints += [
            "%s: listed text names no executable line: %s" % (path.name, source)
            for source in sorted(allowed - by_text.keys())
        ]
    complaints += ["%s: listed file does not exist" % name for name in sorted(listed)]
    return complaints


def main(argv: list[str]) -> int:
    import pytest

    package = str(_PACKAGE)
    ran: dict[str, set[int]] = {}
    names: dict[str, str | None] = {}

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in names:
            path = pathlib.Path(filename).resolve()
            names[filename] = path.name if str(path.parent) == package else None
        name = names[filename]
        if name is None:
            return None
        lines = ran.setdefault(name, set())
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    if "extremal_poly" in sys.modules:
        raise RuntimeError("extremal_poly was imported before the trace began")
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(_ROOT / "tests")] + argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    complaints = check(ran, load_allowlist())
    for line in complaints:
        print(line)
    print("line trace: %d complaint(s)" % len(complaints))
    return int(status) or (1 if complaints else 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
