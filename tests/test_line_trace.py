"""The line-trace plugin in ``tools/`` lists statements as it says.

The plugin itself traces the whole suite (``-p line_trace``), which takes
about a minute; this runs its statement lister on a snippet.
"""

import importlib
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

SNIPPET = '''"""Module docstring."""
import os


@staticmethod
def f(x):
    """Docstring."""
    if x: return (
        1
    )
    try:
        y = [
            x,
        ]
    except ValueError:
        pass
'''


def test_statements_are_keyed_by_first_line_with_their_own_span(monkeypatch):
    # Docstrings compile to nothing; a def spans its decorators, not its body;
    # the inner return shares the if's line, so the if is kept.
    monkeypatch.syspath_prepend(str(TOOLS))
    statements = importlib.import_module("line_trace").statements
    assert statements(SNIPPET) == {
        2: range(2, 3), 6: range(5, 7), 8: range(8, 9), 11: range(11, 12), 12: range(12, 15), 16: range(16, 17),
    }
