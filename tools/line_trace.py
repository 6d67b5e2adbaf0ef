"""Line trace of the tier-1 suite: the statements of ``src/locmat`` that no test runs.

A pytest plugin with no options, built on the standard library alone. Run it
from the repository root:

    PYTHONPATH=src:tools python -m pytest -q -p line_trace --hypothesis-seed=0

It records every line that code in ``src/locmat`` runs, from pytest's start-up
(so that imports count) to the end of the session. After pytest's summary it
prints each statement that never ran as ``file:line``. A statement counts as
run when a line of its own span ran: all the lines of a simple statement, or
the header of a compound one (decorators included), not its body.

Tracing slows locmat's code several times over, so a test with a wall-clock
bound may fail under it. A trace function that reaches the recursion limit is
switched off by Python, so the trace is installed again before each test.
"""

import ast
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "locmat"


def statements(source: str) -> dict[int, range]:
    """Each statement of ``source`` by its first line, with the lines whose run
    runs it.  A constant expression, a docstring, compiles to nothing and is
    left out; of two statements on one line, the outer one is kept."""
    spans: dict[int, range] = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        start = min([d.lineno for d in getattr(node, "decorator_list", ())] + [node.lineno])
        body = [child.lineno for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt)]
        spans.setdefault(node.lineno, range(start, max(min(body), node.lineno + 1) if body else node.end_lineno + 1))
    return spans


class _LineTrace:
    """The lines of ``src/locmat`` that ran, kept by the plugin object that
    this module registers for the session."""

    def __init__(self):
        self.ran: dict[str, set[int]] = {}  # file name in SRC -> the lines that ran
        self.names: dict[str, str | None] = {}  # code file name -> its name in SRC, or None

    def trace(self, frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            name = self.names[filename]
        except KeyError:
            path = Path(filename).resolve()
            name = self.names[filename] = path.name if path.parent == SRC else None
        if name is None:
            return None
        lines = self.ran.setdefault(name, set())

        def trace_lines(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    def install(self) -> None:
        sys.settrace(self.trace)
        threading.settrace(self.trace)

    def pytest_runtest_setup(self, item):
        self.install()

    def pytest_terminal_summary(self, terminalreporter):
        sys.settrace(None)
        threading.settrace(None)
        missed = [
            f"{path.relative_to(SRC.parent.parent)}:{line}"
            for path in sorted(SRC.glob("*.py"))
            for line, span in sorted(statements(path.read_text(encoding="utf-8")).items())
            if self.ran.get(path.name, set()).isdisjoint(span)
        ]
        terminalreporter.write_sep("-", f"line trace: {len(missed)} statements of src/locmat ran in no test")
        for entry in missed:
            terminalreporter.write_line(entry)


def pytest_configure(config):
    line_trace = _LineTrace()
    config.pluginmanager.register(line_trace, "line_trace_state")
    line_trace.install()
