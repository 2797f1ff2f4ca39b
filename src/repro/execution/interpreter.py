"""Interpret one code version: the correctness oracle.

Runs the iteration points in the version's schedule order, reading every
source value from the version's storage buffer (or from the loop inputs
when the producer lies outside the ISG) and writing the result through the
version's mapping.  Because all versions of a code share ``combine`` and
the context, any two *legal* versions produce bit-identical live-out
values; an illegal mapping/schedule pair (e.g. a tiled rolling buffer)
produces wrong numbers — which is itself used by tests as end-to-end
evidence that the legality analyses say the right thing.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.codes.base import Code, CodeVersion, Context
from repro.util.vectors import IntVector

__all__ = ["ExecutionResult", "execute"]


class ExecutionResult:
    """Outcome of executing one version (any engine).

    ``engine_used`` names the engine that actually produced the numbers
    (``"interpreter"``, ``"vectorized"``, ``"native"``) — an engine that
    degrades overwrites it truthfully.  ``degradation`` carries the
    structured :class:`~repro.resilience.budget.Degradation` record when
    a requested engine fell back, ``None`` on the happy path.
    """

    engine_used: str = "interpreter"
    degradation = None

    def __init__(
        self,
        version: CodeVersion,
        sizes: Mapping[str, int],
        storage: np.ndarray,
        mapping_fn,
        bounds,
        ctx: Context,
    ):
        self.version = version
        self.sizes = dict(sizes)
        self.storage = storage
        self._mapping_fn = mapping_fn
        self._bounds = bounds
        self.ctx = ctx

    def value(self, q: IntVector) -> float:
        """The value produced at iteration ``q`` *as currently stored*.

        Valid for iterations whose location has not been reused since —
        in particular for all of ``code.output_points`` after a complete
        legal run."""
        if not all(lo <= c <= hi for c, (lo, hi) in zip(q, self._bounds)):
            raise ValueError(f"{q} is outside the iteration space")
        return float(self.storage[self._mapping_fn(*q)])

    def output_values(self) -> np.ndarray:
        """Live-out values in ``code.output_points`` order.

        One vectorized gather through the mapping — the compiled mapping
        is pure ``+ * %`` arithmetic, so it evaluates elementwise on the
        coordinate arrays — with the per-point bounds check batched into
        a single test.
        """
        points = self.version.code.output_points(self.sizes)
        if not points:
            return np.zeros(0, dtype=np.float64)
        pts = np.asarray(points, dtype=np.int64)
        lows = np.array([lo for lo, _ in self._bounds], dtype=np.int64)
        highs = np.array([hi for _, hi in self._bounds], dtype=np.int64)
        inside = np.all((pts >= lows) & (pts <= highs), axis=1)
        if not inside.all():
            bad = pts[~inside][0]
            raise ValueError(
                f"{tuple(int(c) for c in bad)} is outside the iteration "
                "space"
            )
        offsets = np.asarray(
            self._mapping_fn(*(pts[:, k] for k in range(pts.shape[1])))
        )
        if offsets.ndim == 0:
            offsets = np.full(pts.shape[0], int(offsets), dtype=np.int64)
        return self.storage[offsets].astype(np.float64, copy=False)


def execute(
    version: CodeVersion,
    sizes: Mapping[str, int],
    seed: int = 0,
    check_legality: bool = False,
) -> ExecutionResult:
    """Run one version to completion.

    ``check_legality=True`` additionally runs the dynamic mapping-liveness
    checker over the same order first and raises ``ValueError`` with the
    violation if the (mapping, schedule) pair is illegal — useful when
    driving experimental configurations that are not known-good.
    """
    code: Code = version.code
    ctx = code.make_context(sizes, seed)
    bounds = code.bounds(sizes)
    mapping = version.mapping(sizes)
    schedule = version.schedule(sizes)

    if check_legality:
        require_legal(version, mapping, schedule, bounds)

    storage = np.zeros(mapping.size, dtype=np.float64)
    mapping_fn = mapping.compiled()
    distances = code.source_distances
    combine = code.combine
    input_value = code.input_value
    dim = len(bounds)

    inside = _containment_check(bounds)
    for q in schedule.order(bounds):
        values = []
        for d in distances:
            p = tuple(q[k] - d[k] for k in range(dim))
            if inside(p):
                values.append(storage[mapping_fn(*p)])
            else:
                values.append(input_value(p, ctx))
        storage[mapping_fn(*q)] = combine(values, q, ctx)

    return ExecutionResult(version, sizes, storage, mapping_fn, bounds, ctx)


def require_legal(version: CodeVersion, mapping, schedule, bounds) -> None:
    """Every engine's ``check_legality``: raise ``ValueError`` when the
    dynamic mapping-liveness checker finds the pair illegal."""
    from repro.analysis.liveness import find_mapping_violation

    violation = find_mapping_violation(
        mapping, version.code.stencil, schedule.order(bounds)
    )
    if violation is not None:
        raise ValueError(f"illegal version {version}: {violation}")


def _containment_check(bounds):
    lows = tuple(lo for lo, _ in bounds)
    highs = tuple(hi for _, hi in bounds)

    def inside(p) -> bool:
        return all(lo <= c <= hi for lo, c, hi in zip(lows, p, highs))

    return inside
