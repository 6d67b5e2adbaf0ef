"""Host speed references, for scaling measured times to a nominal speed.

On a shared host the CPU speed a process gets drifts by 20% and more over
tens of seconds, which swamps the differences the benchmark must resolve.
Each timed op is therefore paired with a fixed reference task of the same
kind, timed around it, and its time is scaled by nominal/reference:

* ``SubprocessReference``: a fresh interpreter importing a fixed set of
  stdlib modules, for ops that are fresh interpreters (CLI calls, set-up).
* ``InProcessReference``: a fixed batch of the benchmark's own exact
  arithmetic (dict exponent maps, Fractions, surd comparisons, parsing),
  for ops run in this process.

Neither reference runs any locmat code, so a change to locmat moves the
scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from fractions import Fraction

import model as M

#: Nominal reference times in seconds: the references' medians on a
#: 2-core Xeon with Python 3.11.7, so scaled times read close to raw ones there.
SUBPROCESS_NOMINAL_S = 0.120
INPROCESS_NOMINAL_S = 0.0025

_STDLIB = "import argparse, asyncio, decimal, email.parser, fractions, http.client, json, logging, unittest, xml.dom.minidom"


class _Reference:
    nominal_s = 1.0
    #: References on each side of an op, beyond the two adjacent ones, that
    #: its scale factor is the median of.
    half_window = 0

    def __init__(self):
        self.samples: list[float] = []

    def measure(self) -> float:
        """Seconds the reference task takes now."""
        raise NotImplementedError

    def sample(self) -> int:
        """Time the reference and keep the sample; returns its index."""
        self.samples.append(self.measure())
        return len(self.samples) - 1

    def factors(self) -> list[float]:
        """Per sample i: nominal / median of the samples around the ops timed
        after sample i (i and i+1, widened by half_window on each side)."""
        s, h = self.samples, self.half_window
        return [self.nominal_s / statistics.median(s[max(0, i - h):i + h + 2]) for i in range(len(s))]


class SubprocessReference(_Reference):
    """One reference before each op: a fresh interpreter's speed changes
    from one process to the next, so only the adjacent ones track it."""

    nominal_s = SUBPROCESS_NOMINAL_S

    def __init__(self, env: dict[str, str], cwd):
        super().__init__()
        self.env, self.cwd = env, cwd

    def measure(self) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", _STDLIB], env=self.env, cwd=self.cwd, check=True, timeout=60)
        return time.perf_counter() - t0


class InProcessReference(_Reference):
    """A short reference every few tens of ms of ops; the median of twelve
    around an op smooths the timer noise of each."""

    nominal_s = INPROCESS_NOMINAL_S
    half_window = 5

    def measure(self) -> float:
        t0 = time.perf_counter()
        _arithmetic()
        return time.perf_counter() - t0


_BASE = M.St(1, {2: 3, 3: 0, 5: 2, 7: M.INF, 11: 4})
_SURD = M.Surd(1, 2, 3, 2)


def _arithmetic() -> None:
    for i in range(1, 81):
        t = _BASE.mul({13: i % 3 + 1, 2: 1}).div({5: 1})
        M.ratio(_BASE, t)
        M.dcmp(_SURD, Fraction(i, 7))
        M.dcmp(_SURD, M.Surd(i, 1, 5, 3))
        M.parse_st("2^3*3^0*5^2*7^inf*P").text()
        M.factor_small(1000 + i)
