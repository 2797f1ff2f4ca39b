"""Named storage-mapping plugins for the compilation pipeline.

Each entry builds a concrete :class:`~repro.mapping.base.StorageMapping`
from the same four ingredients the pipeline's mapping-select stage holds:
the extracted stencil, the evaluated integer loop bounds, the chosen
occupancy vector, and the spec's option mapping.  Registering here is all
a new mapping needs to become reachable from a JSON spec's ``"mapping"``
directive, ``repro compile``, and ``repro list``.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Sequence

from repro.core.stencil import Stencil
from repro.mapping.array import RowMajorMapping
from repro.mapping.base import StorageMapping
from repro.mapping.optimized import RollingBufferMapping
from repro.mapping.ov import OVMapping
from repro.util.polyhedron import Polytope
from repro.util.registry import Registry

__all__ = ["MAPPINGS", "build_mapping"]

Bounds = Sequence[tuple[int, int]]

#: Mapping name -> ``build(stencil, bounds, ov, options) -> StorageMapping``.
MAPPINGS: Registry[Callable] = Registry("mapping")


def build_mapping(
    name: str,
    stencil: Stencil,
    bounds: Bounds,
    ov: Optional[Sequence[int]] = None,
    options: Optional[Mapping] = None,
) -> StorageMapping:
    """Instantiate the registered mapping ``name``."""
    return MAPPINGS.get(name)(stencil, tuple(bounds), ov, dict(options or {}))


def _isg(bounds: Bounds) -> Polytope:
    return Polytope.from_loop_bounds(bounds)


def _ov_mapping(stencil, bounds, ov, layout) -> StorageMapping:
    if ov is None:
        raise ValueError("OV mappings need an occupancy vector (run uov-search)")
    return OVMapping(ov, _isg(bounds), layout=layout)


@MAPPINGS.register(
    "natural",
    summary="fully expanded row-major array over the iteration space",
)
def _natural(stencil, bounds, ov, options) -> StorageMapping:
    shape = tuple(hi - lo + 1 for lo, hi in bounds)
    origin = tuple(lo for lo, _ in bounds)
    return RowMajorMapping(shape, origin=origin)


@MAPPINGS.register(
    "ov",
    summary="OV-directed mapping, consecutive class layout (Section 4)",
)
def _ov(stencil, bounds, ov, options) -> StorageMapping:
    return _ov_mapping(stencil, bounds, ov, options.get("layout", "consecutive"))


@MAPPINGS.register(
    "ov-interleaved",
    summary="OV-directed mapping with interleaved residue classes",
)
def _ov_interleaved(stencil, bounds, ov, options) -> StorageMapping:
    return _ov_mapping(stencil, bounds, ov, "interleaved")


@MAPPINGS.register(
    "rolling-buffer",
    summary="schedule-dependent minimal storage (rolling window)",
)
def _rolling_buffer(stencil, bounds, ov, options) -> StorageMapping:
    return RollingBufferMapping(
        stencil,
        _isg(bounds),
        window=options.get("window"),
        perm=tuple(options["perm"]) if options.get("perm") else None,
    )
