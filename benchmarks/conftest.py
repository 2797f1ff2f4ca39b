"""Benchmark fixtures: codes and machines at benchmark-friendly sizes.

Every benchmark both *times* its piece of the pipeline (pytest-benchmark)
and *asserts* the paper-shape property the piece reproduces.  The files
also hold plain tests without the ``benchmark`` fixture (ablations, the
overhead and speedup checks, the e2e contract), which ``--benchmark-only``
skips.  ``pytest benchmarks --benchmark-disable`` runs every test once,
untimed: that run is the regression of every table and figure.
"""

import pytest

from repro.codes import make_psm, make_simple2d, make_stencil5
from repro.machine import ALPHA_21164, PENTIUM_PRO, ULTRA_2


@pytest.fixture(scope="session")
def stencil5_versions():
    return make_stencil5()


@pytest.fixture(scope="session")
def psm_versions():
    return make_psm()


@pytest.fixture(scope="session")
def simple2d_versions():
    return make_simple2d()


@pytest.fixture(scope="session")
def scaled_machines():
    return [m.scaled(32) for m in (PENTIUM_PRO, ULTRA_2, ALPHA_21164)]
