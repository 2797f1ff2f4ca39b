"""The paper's benchmark codes, in every storage-mapping version.

Each code couples an analysable IR program with executable semantics and a
family of *versions* — the natural (array-expanded), OV-mapped (plain and
interleaved), and storage-optimized mappings of Section 5, each optionally
tiled.  All versions of one code compute bit-identical results (the
cross-version verifier in :mod:`repro.execution.verify` asserts this);
they differ only in where values live and in what order iterations run,
which is the entire subject of the paper.

Every code is declared as a :class:`~repro.frontend.spec.StencilSpec`
(module-level ``*_SPEC`` constants) and synthesized through the frontend,
and its versions are the standard family of
:func:`~repro.frontend.synth.make_versions` — the same versions
``repro compile <code> --lint`` lints.  Only psm adds rows of its own
(the searched UOV and the Alpern/Carter/Gatlin buffer), through the same
:func:`~repro.frontend.synth.build_version`:

- :mod:`repro.codes.simple2d` — the running example of Figure 1.
- :mod:`repro.codes.stencil5` — the 5-point 1-D stencil over time
  (Section 5, Table 1, Figures 7 and 9–11).
- :mod:`repro.codes.psm` — protein string matching
  (Section 5, Table 2, Figures 8 and 12–14).
- :mod:`repro.codes.jacobi` — a 3-point Jacobi extension exercise.

:data:`CODES` is the plugin registry mapping name -> version factory; new
codes register themselves there (or arrive as spec files through
``repro compile`` without registering at all).
"""

import functools

from repro.codes.base import Code, CodeVersion
from repro.codes.jacobi import JACOBI_SPEC, make_jacobi
from repro.codes.psm import PSM_SPEC, make_psm
from repro.codes.simple2d import SIMPLE2D_SPEC, make_simple2d
from repro.codes.stencil5 import STENCIL5_SPEC, make_stencil5
from repro.util.registry import Registry

__all__ = [
    "CODES",
    "Code",
    "CodeVersion",
    "MAKERS",
    "get_spec",
    "get_version",
    "get_versions",
    "make_simple2d",
    "make_stencil5",
    "make_psm",
    "make_jacobi",
]

#: Name -> version-factory registry.  The parallel experiment harness
#: and the serve daemon ship only ``(code name, version key)`` across
#: process boundaries (CodeVersion closures do not pickle) and look the
#: version up here; :func:`get_versions` builds each family once per
#: process (the factories are deterministic and a CodeVersion is frozen).
CODES: Registry = Registry("code")
CODES.register(
    "simple2d",
    make_simple2d,
    summary="Figure 1 running example: 3-point 2-D recurrence",
    spec=SIMPLE2D_SPEC,
)
CODES.register(
    "stencil5",
    make_stencil5,
    summary="5-point 1-D stencil over time (Table 1, Figures 9-11)",
    spec=STENCIL5_SPEC,
)
CODES.register(
    "psm",
    make_psm,
    summary="protein string matching (Table 2, Figures 12-14)",
    spec=PSM_SPEC,
)
CODES.register(
    "jacobi",
    make_jacobi,
    summary="3-point Jacobi relaxation (extension)",
    spec=JACOBI_SPEC,
)

#: Plain-dict view kept for callers that iterate the factories directly.
MAKERS = CODES.as_dict()


@functools.lru_cache(maxsize=None)
def _family(code_name: str) -> dict[str, CodeVersion]:
    # The registry is write-once, so a name always means one factory.
    # Nothing outside this module sees this dict: get_versions hands out
    # copies.
    return CODES.get(code_name)()


def get_versions(code_name: str) -> dict[str, CodeVersion]:
    """All versions of the named benchmark code.

    The family is built once per process; each call returns a new dict
    over the same frozen :class:`CodeVersion` objects, so a caller may
    edit its dict without touching the next caller's.
    """
    return dict(_family(code_name))


def get_version(code_name: str, key: str) -> CodeVersion:
    """One version of the named benchmark code, by version key."""
    versions = _family(code_name)
    try:
        return versions[key]
    except KeyError:
        raise KeyError(
            f"unknown version {key!r} of {code_name}; "
            f"one of {sorted(versions)}"
        ) from None


def get_spec(code_name: str):
    """The StencilSpec a registered code was synthesized from."""
    return CODES.entry(code_name).meta["spec"]
