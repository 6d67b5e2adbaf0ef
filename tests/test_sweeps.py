"""The equivalence sweeps in ``tools/`` still import and make lines.

``tools/sweeps.py`` runs them in full, in about 1.5 minutes; this takes the
first few lines of each, so that a renamed or removed library name shows here.
"""

import importlib
from contextlib import closing
from itertools import islice
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_each_sweep_makes_its_first_lines(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    sweeps = importlib.import_module("sweeps")
    assert sweeps.recorded().keys() == set(sweeps.SWEEPS)
    for name in sweeps.SWEEPS:
        with closing(importlib.import_module(f"{name}_sweep").lines()) as lines:
            first = list(islice(lines, 3))
        assert len(first) == 3 and all(line and "\n" not in line for line in first), name
