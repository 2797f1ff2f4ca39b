"""Cross-version output verification.

All versions of one code differ only in storage mapping and schedule, so
their live-out values must agree **bit for bit** (same inputs, same
floating-point operations in the same per-value order — reassociation
never happens because ``combine`` is shared).  Any discrepancy means a
mapping overwrote a live value or a schedule broke a dependence; the test
suite uses this as the end-to-end referee for the whole stack.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.codes.base import CodeVersion
from repro.execution.engines import run_engine_batch

__all__ = ["verify_versions", "VersionMismatch"]


class VersionMismatch(AssertionError):
    """Two versions of the same code disagreed on a live-out value."""


def verify_versions(
    versions: Iterable[CodeVersion],
    sizes: Mapping[str, int],
    seed: int = 0,
    engine: str = "interpreter",
) -> np.ndarray:
    """Run every version and assert identical live-out values.

    Returns the (shared) output vector.  Raises :class:`VersionMismatch`
    naming the offending version and the first differing output index.
    ``engine`` selects the execution engine (all versions run through
    the same one, as one batch, so the native engine compiles them into
    one object; cross-engine agreement is the native differential
    suite's job, not this referee's).
    """
    versions = list(versions)
    if not versions:
        raise ValueError("no versions to verify")
    reference = None
    reference_key = None
    results = run_engine_batch(engine, versions, sizes, seed=seed)
    for version, result in zip(versions, results):
        outputs = result.output_values()
        if reference is None:
            reference, reference_key = outputs, version.key
            continue
        if outputs.shape != reference.shape:
            raise VersionMismatch(
                f"{version.key} produced {outputs.shape} outputs, "
                f"{reference_key} produced {reference.shape}"
            )
        mismatch = np.nonzero(outputs != reference)[0]
        if mismatch.size:
            k = int(mismatch[0])
            raise VersionMismatch(
                f"{version.key} disagrees with {reference_key} at output "
                f"{k}: {outputs[k]!r} != {reference[k]!r} "
                f"(sizes {dict(sizes)})"
            )
    return reference
