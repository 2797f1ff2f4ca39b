"""Shared fixtures: the paper's stencils and ISGs, reused across the suite,
and a session-end report of what could keep the interpreter alive."""

from __future__ import annotations

import multiprocessing
import sys
import threading

import pytest

from repro.core.stencil import Stencil
from repro.util.polyhedron import Polytope


def pytest_unconfigure(config):
    """Name every live non-daemon thread other than the main one and every
    live ``multiprocessing`` child: interpreter exit waits on them, so a
    run that lingers after its summary line says here what it waits for.
    Prints only; fails nothing."""
    threads = [
        t
        for t in threading.enumerate()
        if t is not threading.main_thread() and not t.daemon and t.is_alive()
    ]
    children = multiprocessing.active_children()
    if not threads and not children:
        return
    lines = [f"thread {t.name} (native id {t.native_id})" for t in threads]
    lines += [f"child process {p.name} (pid {p.pid})" for p in children]
    heading = "\nnon-daemon threads and child processes alive at session end:"
    print(heading, *lines, sep="\n  ", file=sys.stderr)


@pytest.fixture
def fig1_stencil() -> Stencil:
    """Figure 1's 3-point recurrence stencil."""
    return Stencil([(1, 0), (0, 1), (1, 1)])


@pytest.fixture
def stencil5() -> Stencil:
    """The 5-point 1-D stencil over time (Section 5)."""
    return Stencil([(1, -2), (1, -1), (1, 0), (1, 1), (1, 2)])


@pytest.fixture
def fig2_stencil() -> Stencil:
    """The Figure 2/3 stencil, reconstructed from the Figure 3 numbers."""
    return Stencil([(1, 0), (1, 1), (1, -1)])


@pytest.fixture
def fig3_isg() -> Polytope:
    """Figure 3's parallelogram ISG with the implied fourth vertex."""
    return Polytope([(1, 1), (1, 6), (10, 9), (10, 4)])


@pytest.fixture
def small_box() -> Polytope:
    return Polytope.from_box((0, 0), (7, 9))
