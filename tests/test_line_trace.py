"""The line-trace check (line_trace.py) on made-up traces: what it counts
as executable, and what it complains about."""

import line_trace


def _every_line():
    return {
        path.name: line_trace.executable_lines(path)
        for path in line_trace._PACKAGE.glob("*.py")
    }


def _line_of(name, source):
    text = (line_trace._PACKAGE / name).read_text().splitlines()
    return [n for n, line in enumerate(text, 1) if line.strip() == source]


def test_allowlist_is_short_and_every_entry_has_a_reason():
    allowlist = line_trace.load_allowlist()
    assert len(allowlist) <= 3
    assert all(entry["reason"].strip() for entry in allowlist)


def test_only_listed_lines_complain_when_every_line_ran():
    allowlist = line_trace.load_allowlist()
    complaints = line_trace.check(_every_line(), allowlist)
    assert len(complaints) == len(allowlist)
    assert all(" listed but ran: " in c for c in complaints)


def test_a_line_that_never_ran_is_named():
    ran = _every_line()
    (n,) = _line_of("cli.py", "return _emit(disk_to_dict(disk, bounds))")
    ran["cli.py"].discard(n)
    complaints = line_trace.check(ran, [])
    assert "cli.py:%d never ran: return _emit(disk_to_dict(disk, bounds))" % n in complaints


def test_split_condition_opens_on_no_executable_line():
    # the "if (" of a condition split over lines has no bytecode of its
    # own, so it cannot be a false miss; its operand lines are counted
    lines = line_trace.executable_lines(line_trace._PACKAGE / "cli.py")
    (n,) = _line_of("cli.py", "if (")
    assert n not in lines
    assert n + 1 in lines and n + 2 in lines


def test_stale_entries_complain():
    entries = [
        {"file": "cli.py", "line": "no such line", "reason": "r"},
        {"file": "no_such_module.py", "line": "x = 1", "reason": "r"},
    ]
    complaints = line_trace.check(_every_line(), entries)
    assert complaints == [
        "cli.py: listed text names no executable line: no such line",
        "no_such_module.py: listed file does not exist",
    ]
