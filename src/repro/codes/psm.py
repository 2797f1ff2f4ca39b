"""Protein string matching (Section 5; Table 2, Figures 8, 12-14).

Compares two amino-acid strings of lengths ``n0`` and ``n1`` with a
Smith-Waterman-style scoring recurrence over a 23x23 weight table::

    for i = 1..n0:
      for j = 1..n1:
        H[i][j] = max( H[i-1][j-1] + W[s0[i], s1[j]],
                       H[i-1][j]   - gap,
                       H[i][j-1]   - gap,
                       0 )

The stencil is ``{(1,0), (0,1), (1,1)}``.  The paper's OV-mapped version
allocates ``2*n0 + 2*n1 + 1`` temporaries, which is the storage of the
*initial* UOV ``ov0 = (2,2)`` (sum of the stencil); we use ``(2,2)`` to
reproduce the paper's numbers and additionally expose the *optimal* UOV
``(1,1)`` (storage ``n0 + n1 - 1``) as the ``ov-optimal`` versions — the
branch-and-bound search of Section 3.2 finds it, and it halves the
OV-mapped footprint relative to the published variant.

The statement reads a data-dependent weight table — semantics a pure
combine expression cannot state — so the spec uses the frontend's escape
hatch: a registered :class:`~repro.frontend.combine.SemanticsHook` named
``"psm"`` supplies the combine, the table/string context, and the extra
table reads, while boundaries use the ``zero-borders`` input rule (local
alignment: border scores are zero).

The storage-optimized version follows Alpern/Carter/Gatlin [1]: the loop
runs interchanged (inner loop over the first string) with two columns of
intermediate values plus three scalars — ``2*n0 + 3`` locations (Table 2).

The inner loop's three data-dependent ``max`` selections are modelled as
branches; on the in-order Ultra 2 / Alpha cost models they dominate the
cycle count, which is exactly the paper's explanation for why tiling does
not help PSM there while it does on the Pentium Pro.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.codes.base import CodeVersion
from repro.frontend import COMBINE_HOOKS, SemanticsHook, SpecBuilder, synthesize_code
from repro.mapping import OVMapping, RollingBufferMapping, RowMajorMapping
from repro.schedule import (
    InterchangedSchedule,
    LexicographicSchedule,
    TiledSchedule,
)
from repro.util.polyhedron import Polytope

__all__ = [
    "make_psm",
    "PSM_ALPHABET",
    "PSM_GAP",
    "PSM_PAPER_UOV",
    "PSM_OPTIMAL_UOV",
    "PSM_SPEC",
]

PSM_ALPHABET = 23  # amino-acid alphabet of the paper's 23x23 weight table
PSM_GAP = 4.0
PSM_DISTANCES = ((1, 1), (1, 0), (0, 1))
PSM_PAPER_UOV = (2, 2)  # the initial UOV; reproduces Table 2's 2n0+2n1+O(1)
PSM_OPTIMAL_UOV = (1, 1)  # what the branch-and-bound search returns

DEFAULT_TILE = 48

_TABLE_ELEMENTS = PSM_ALPHABET * PSM_ALPHABET


def _make_context(sizes: Mapping[str, int], seed: int):
    rng = np.random.default_rng(seed)
    weights = rng.integers(-3, 12, size=(PSM_ALPHABET, PSM_ALPHABET)).astype(
        np.float64
    )
    # Symmetric, like real substitution matrices (BLOSUM/PAM shaped).
    weights = (weights + weights.T) / 2.0
    s0 = rng.integers(0, PSM_ALPHABET, size=sizes["n0"] + 1)
    s1 = rng.integers(0, PSM_ALPHABET, size=sizes["n1"] + 1)
    return {"weights": weights, "s0": s0, "s1": s1}


def _combine(values, q, ctx) -> float:
    diag, up, left = values
    i, j = q
    w = ctx["weights"][ctx["s0"][i], ctx["s1"][j]]
    return max(diag + w, up - PSM_GAP, left - PSM_GAP, 0.0)


def _extra_reads(q, ctx):
    i, j = q
    a = int(ctx["s0"][i])
    b = int(ctx["s1"][j])
    n0 = len(ctx["s0"]) - 1
    # layout within the table region: W table, then s0, then s1.
    return (
        _TABLE_ELEMENTS + i,  # s0[i]
        _TABLE_ELEMENTS + n0 + 1 + j,  # s1[j]
        a * PSM_ALPHABET + b,  # W[s0[i], s1[j]]
    )


# Batched semantics: elementwise transliterations of the scalar functions
# above.  ``max(a, b, c, 0)`` commutes with any association of pairwise
# maxima over the same operands, so the np.maximum tree below returns the
# same value the scalar ``max`` does, bit for bit.


def _combine_batch(values, q, ctx) -> np.ndarray:
    diag, up, left = values
    i, j = q
    w = ctx["weights"][ctx["s0"][i], ctx["s1"][j]]
    return np.maximum(
        np.maximum(diag + w, up - PSM_GAP),
        np.maximum(left - PSM_GAP, 0.0),
    )


def _extra_reads_batch(q, ctx) -> np.ndarray:
    i, j = q
    s0 = np.asarray(ctx["s0"])
    s1 = np.asarray(ctx["s1"])
    n0 = len(s0) - 1
    return np.stack(
        [
            _TABLE_ELEMENTS + i,  # s0[i]
            _TABLE_ELEMENTS + n0 + 1 + j,  # s1[j]
            s0[i] * PSM_ALPHABET + s1[j],  # W[s0[i], s1[j]]
        ],
        axis=1,
    )


COMBINE_HOOKS.register(
    "psm",
    SemanticsHook(
        name="psm",
        combine=_combine,
        combine_batch=_combine_batch,
        # At the IR level the data-dependent table term is abstracted
        # away; the dependence structure is all the analyses need.
        ir_combine=lambda diag, up, left: max(
            diag, up - PSM_GAP, left - PSM_GAP, 0.0
        ),
        make_context=_make_context,
        extra_read_offsets=_extra_reads,
        extra_read_offsets_batch=_extra_reads_batch,
    ),
    summary="Smith-Waterman scoring over a 23x23 substitution table",
)

#: The declarative description; combine semantics come from the hook.
#: The live-out of string matching is the final scoring column H[*, n1]
#: (it contains the alignment score H[n0, n1]), hence ``output_axis=1``:
#: the last column is also the region that survives in every version's
#: storage, including the interchanged double-column optimized variant,
#: whose rolling window only retains the most recent two columns.
PSM_SPEC = (
    SpecBuilder("psm")
    .loop("i", 1, "n0")
    .loop("j", 1, "n1")
    .distances(*PSM_DISTANCES)
    .hook("psm")
    .inputs("zero-borders")
    .costs(int_ops=4, branches=3)
    .output_axis(1)
    .array("H")
    .sizes(n0=5, n1=6)
    .uov(*PSM_PAPER_UOV)
    .build()
)


def _isg(sizes: Mapping[str, int]) -> Polytope:
    return Polytope.from_loop_bounds(PSM_SPEC.bounds_fn(sizes))


def _tile_sizes(sizes: Mapping[str, int]) -> tuple[int, int]:
    t = sizes.get("tile", DEFAULT_TILE)
    return (sizes.get("tile_h", t), sizes.get("tile_w", t))


def make_psm() -> dict[str, CodeVersion]:
    """All versions of protein string matching (Figure 12-14 legend plus
    the optimal-UOV extension)."""
    code = synthesize_code(PSM_SPEC)
    stencil = code.stencil

    def natural_mapping(sizes):
        return RowMajorMapping((sizes["n0"], sizes["n1"]), origin=(1, 1))

    def ov_mapping(ov):
        def factory(sizes):
            return OVMapping(ov, _isg(sizes), layout="consecutive")

        return factory

    def optimized_mapping(sizes):
        # Alpern/Carter/Gatlin run the inner loop along the first string
        # and keep two length-n0 columns plus three scalars.
        return RollingBufferMapping(
            stencil, _isg(sizes), window=2 * sizes["n0"] + 3, perm=(1, 0)
        )

    def lex(sizes):
        return LexicographicSchedule()

    def interchanged(sizes):
        return InterchangedSchedule((1, 0))

    def tiled(sizes):
        # PSM's stencil is already fully permutable: no skew needed.
        return TiledSchedule(_tile_sizes(sizes))

    def mk(key, label, mapping_factory, schedule_factory, storage, **kw):
        return CodeVersion(
            key=key,
            label=label,
            code=code,
            mapping_factory=mapping_factory,
            schedule_factory=schedule_factory,
            storage_formula=storage,
            **kw,
        )

    natural_storage = lambda s: s["n0"] * s["n1"]
    paper_ov_storage = lambda s: 2 * (s["n0"] + s["n1"] - 1)
    optimal_ov_storage = lambda s: s["n0"] + s["n1"] - 1
    optimized_storage = lambda s: 2 * s["n0"] + 3

    return {
        "natural": mk("natural", "Natural", natural_mapping, lex, natural_storage),
        "natural-tiled": mk(
            "natural-tiled",
            "Natural Tiled",
            natural_mapping,
            tiled,
            natural_storage,
            tiled=True,
        ),
        "ov": mk(
            "ov", "OV-Mapped", ov_mapping(PSM_PAPER_UOV), lex, paper_ov_storage
        ),
        "ov-tiled": mk(
            "ov-tiled",
            "OV-Mapped Tiled",
            ov_mapping(PSM_PAPER_UOV),
            tiled,
            paper_ov_storage,
            tiled=True,
        ),
        "ov-optimal": mk(
            "ov-optimal",
            "OV-Mapped (optimal UOV)",
            ov_mapping(PSM_OPTIMAL_UOV),
            lex,
            optimal_ov_storage,
            notes="extension: the searched UOV (1,1) rather than the "
            "paper's initial UOV (2,2)",
        ),
        "ov-optimal-tiled": mk(
            "ov-optimal-tiled",
            "OV-Mapped (optimal UOV) Tiled",
            ov_mapping(PSM_OPTIMAL_UOV),
            tiled,
            optimal_ov_storage,
            tiled=True,
        ),
        "storage-optimized": mk(
            "storage-optimized",
            "Storage Optimized",
            optimized_mapping,
            interchanged,
            optimized_storage,
            tilable=False,
            notes="Alpern/Carter/Gatlin double-column variant, "
            "interchanged loops",
        ),
    }
