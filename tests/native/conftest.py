"""Native-tier fixtures: one shared-object cache per test session.

A session-scoped cache directory keeps every compiled object out of the
user's real cache and makes the warm-load assertions deterministic: the
first test that touches a version pays its compile, every later test
hits the cache.
"""

from __future__ import annotations

import pytest

from repro.codegen.build import discover_toolchain

HAS_CC = discover_toolchain() is not None

requires_cc = pytest.mark.skipif(
    not HAS_CC, reason="no C toolchain on PATH (or REPRO_CC=none)"
)


@pytest.fixture(scope="session")
def so_cache(tmp_path_factory) -> str:
    return str(tmp_path_factory.mktemp("so-cache"))


def fake_cc(directory, real_cc: str, reject=None):
    """A compiler script in ``directory`` that wraps ``real_cc``.

    It appends each call's arguments, as one line, to the log it returns
    beside the script, and exits 1 when an argument equals ``reject``.
    Returns ``(script, log)``.
    """
    script = directory / "fake-cc"
    log = directory / "fake-cc.log"
    lines = ["#!/bin/sh", f'printf "%s\\n" "$*" >> "{log}"']
    if reject is not None:
        lines.append(
            f'for arg in "$@"; do [ "$arg" = "{reject}" ] && '
            f'{{ echo "fake-cc: {reject} rejected" >&2; exit 1; }}; done'
        )
    lines.append(f'exec "{real_cc}" "$@"')
    script.write_text("\n".join(lines) + "\n")
    script.chmod(0o755)
    return script, log


def cc_calls(log) -> list[str]:
    """The argument lines a :func:`fake_cc` log holds (none yet: [])."""
    return log.read_text().splitlines() if log.exists() else []
