"""A fixed pure-Python workload that tells how fast the host runs Python now.

On a shared machine the speed of the same code drifts by 15-35 % within
seconds and between minutes, as other tenants come and go.  The
benchmark times this yardstick right before and right after every
operation and reports the operation's time scaled by ``REFERENCE_S /
mean yardstick time``: seconds on a host where the yardstick takes
exactly REFERENCE_S.  The yardstick is benchmark code that does not
depend on gexpkit, so a change to gexpkit moves the scaled times as it
moves the raw ones.  Changing the yardstick or REFERENCE_S changes
every scaled time: the baseline must then be measured again.

Its work resembles gexpkit's: a per-character reader building nested
tuples, a recursive printer, and hashing of the printed text.

A workload that runs gexpkit as a child process spends most of its time
starting the interpreter and importing modules, which does not slow
down in proportion to pure Python.  For it, `measure_child` times a
child interpreter that imports the standard modules gexpkit imports,
against CHILD_REFERENCE_S.
"""

from __future__ import annotations

import gc
import hashlib
import random
import subprocess
import sys
import time

REFERENCE_S = 0.0023
REPEATS = 3
CHILD_REFERENCE_S = 0.056
CHILD_CODE = ("import argparse, contextlib, dataclasses, hashlib, os, pathlib, re, "
              "shutil, subprocess, sys, tempfile, threading, typing")


def _text() -> str:
    rng = random.Random(0)

    def datum(depth: int) -> str:
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(['"str"', "sym", "12345", "#t", "other-symbol"])
        return "(" + " ".join(datum(depth - 1) for _ in range(rng.randrange(1, 5))) + ")"

    return " ".join(datum(6) for _ in range(40))


_TEXT = _text()


def _read(text: str):
    out, stack, pos, n = [], [], 0, len(text)
    while pos < n:
        c = text[pos]
        if c in " \n":
            pos += 1
        elif c == "(":
            stack.append(out)
            out = []
            pos += 1
        elif c == ")":
            done = tuple(out)
            out = stack.pop()
            out.append(done)
            pos += 1
        else:
            start = pos
            while pos < n and text[pos] not in " ()\n":
                pos += 1
            out.append(text[start:pos])
    return tuple(out)


def _print(value, parts: list) -> None:
    if isinstance(value, tuple):
        parts.append("(")
        for i, item in enumerate(value):
            if i:
                parts.append(" ")
            _print(item, parts)
        parts.append(")")
    else:
        parts.append(value)


def _once() -> float:
    # Without the collector, the reading does not depend on how many
    # objects the benchmarked program keeps alive.
    gc.disable()
    try:
        start = time.perf_counter()
        parts: list = []
        _print(_read(_TEXT), parts)
        hashlib.sha256("".join(parts).encode()).hexdigest()
        return time.perf_counter() - start
    finally:
        gc.enable()


def measure() -> float:
    """Fastest of REPEATS yardstick runs, in seconds: interruptions only
    ever add time."""
    return min(_once() for _ in range(REPEATS))


def measure_child() -> float:
    """Wall time of one child interpreter running CHILD_CODE, in seconds."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", CHILD_CODE], check=True)
    return time.perf_counter() - start


class Scaler:
    """Ruler readings around consecutive timed spans (operations, or
    whole iterations for the child ruler); the reading after one span is
    the reading before the next.  `reset` forces a fresh one."""

    def __init__(self, measure=measure, reference: float = REFERENCE_S):
        self.measure, self.reference = measure, reference
        self.readings: list = []
        self._before = None

    def reset(self) -> None:
        """Forget the last reading, e.g. after work between operations."""
        self._before = None

    def begin(self) -> None:
        if self._before is None:
            self._before = self.measure()
            self.readings.append(self._before)

    def factor(self) -> float:
        """Take the reading after the operations timed since `begin`
        and return the factor that scales their times."""
        after = self.measure()
        self.readings.append(after)
        factor = self.reference / ((self._before + after) / 2)
        self._before = after
        return factor

    def scale(self, elapsed: float) -> float:
        return elapsed * self.factor()
