"""Synthesis: a validated :class:`StencilSpec` becomes a full ``Code``.

This is the frontend's back half.  :func:`synthesize_code` assembles
everything a hand-written ``codes/*.py`` module used to provide — the IR
:class:`~repro.ir.program.Program`, the :class:`~repro.core.stencil.Stencil`,
executable combine/input semantics (scalar *and* batched), costs — from
the declarative spec, so an arbitrary stencil runs through analysis,
interpretation, and codegen without any new Python.

:func:`build_version` is the only place a ``CodeVersion`` is assembled,
from a registered mapping name, a registered schedule name, an OV and
registry options; every ``tiled`` version takes its tile from
:func:`tile_shape`.  :func:`make_versions` builds the standard family
with it (natural / OV-mapped / storage-optimized, tiled variants) — the
family of every registered code and of the pipeline's lint stage — and
:func:`spec_version` the single version a spec's directive fields ask
for.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Mapping, Optional, Sequence, Union

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # runtime import is deferred: repro.codes imports the
    # spec-driven code modules, which import this package back.
    from repro.codes.base import Code, CodeVersion

from repro.core.search import find_optimal_uov
from repro.core.stencil import Stencil
from repro.frontend.combine import compile_combine
from repro.frontend.inputs import build_input_rule
from repro.frontend.spec import StencilSpec
from repro.ir import ArrayDecl, ArrayRef, Assignment, LoopNest, Program
from repro.ir.affine import AffineExpr
from repro.mapping import build_mapping
from repro.schedule import build_schedule
from repro.schedule.registry import DEFAULT_TILE

__all__ = [
    "build_version",
    "code_to_spec",
    "make_versions",
    "spec_version",
    "synthesize_code",
    "tile_shape",
]


def _subscript(index: str, delta: int) -> str:
    if delta == 0:
        return index
    return f"{index}{-delta:+d}"


def _synthesize_program(spec: StencilSpec, ir_combine) -> Program:
    target = ArrayRef.of(spec.array, *spec.indices)
    sources = tuple(
        ArrayRef.of(
            spec.array,
            *(_subscript(ix, d) for ix, d in zip(spec.indices, dist)),
        )
        for dist in spec.distances
    )
    stmt = Assignment(
        target=target,
        sources=sources,
        combine=ir_combine,
        flops=spec.costs.get("flops", 0),
        int_ops=spec.costs.get("int_ops", 0),
        branches=spec.costs.get("branches", 0),
    )
    # The array spans index 0 .. hi on every axis (lower borders live in
    # the input region), so each extent is hi + 1.
    shape = tuple(str(AffineExpr.parse(hi) + 1) for _, hi in spec.bounds)
    return Program(
        name=spec.name,
        loop=LoopNest.of(spec.indices, [list(pair) for pair in spec.bounds]),
        body=(stmt,),
        arrays=(ArrayDecl.of(spec.array, *shape, live_out=False),),
        size_symbols=spec.size_symbols,
    )


def _output_points_fn(spec: StencilSpec):
    axis = spec.output_axis

    def output_points(sizes: Mapping[str, int]):
        bounds = spec.bounds_fn(sizes)
        face = bounds[axis][1]
        others = [range(lo, hi + 1) for k, (lo, hi) in enumerate(bounds) if k != axis]
        points = []
        for combo in itertools.product(*others):
            point = list(combo)
            point.insert(axis, face)
            points.append(tuple(point))
        return points

    return output_points


def synthesize_code(spec: StencilSpec) -> Code:
    """Build the full executable/analyzable ``Code`` a spec describes."""
    from repro.codes.base import Code

    compiled = compile_combine(spec.combine, len(spec.distances))
    bindings = build_input_rule(spec.inputs, spec.bounds_fn, spec.ndim)
    hook = compiled.hook

    if hook is not None and hook.make_context is not None:
        rule_ctx = bindings.make_context
        hook_ctx = hook.make_context

        def make_context(sizes, seed):
            ctx = dict(rule_ctx(sizes, seed))
            ctx.update(hook_ctx(sizes, seed))
            return ctx

    else:
        make_context = bindings.make_context

    extra: dict = {}
    if hook is not None:
        if hook.extra_read_offsets is not None:
            extra["extra_read_offsets"] = hook.extra_read_offsets
        if hook.extra_read_offsets_batch is not None:
            extra["extra_read_offsets_batch"] = hook.extra_read_offsets_batch

    return Code(
        name=spec.name,
        program=_synthesize_program(spec, compiled.ir_combine),
        stencil=Stencil(spec.distances),
        source_distances=spec.distances,
        bounds=spec.bounds_fn,
        make_context=make_context,
        input_value=bindings.input_value,
        input_offset=bindings.input_offset,
        combine=compiled.combine,
        combine_batch=compiled.combine_batch,
        input_values_batch=bindings.input_values_batch,
        input_offsets_batch=bindings.input_offsets_batch,
        output_points=_output_points_fn(spec),
        flops=spec.costs.get("flops", 0),
        int_ops=spec.costs.get("int_ops", 0),
        branches=spec.costs.get("branches", 0),
        spec=spec,
        **extra,
    )


def code_to_spec(code: Code) -> StencilSpec:
    """Recover the spec a code was synthesized from (round-trip)."""
    if code.spec is None:
        raise ValueError(
            f"code {code.name!r} was hand-written, not synthesized from a spec"
        )
    return code.spec


def resolve_uov(spec: StencilSpec, stencil: Stencil) -> tuple[int, ...]:
    """The spec's UOV override, or the branch-and-bound optimum."""
    if spec.uov is not None:
        return tuple(spec.uov)
    return tuple(find_optimal_uov(stencil).ov)


def tile_shape(
    spec: StencilSpec, sizes: Mapping[str, int]
) -> tuple[int, ...]:
    """The tile a ``tiled`` version runs at ``sizes``.

    The size binding's ``tile`` (every axis), ``tile_h`` (axis 0) and
    ``tile_w`` (axis 1) entries win; otherwise the spec's ``tile``
    directive, otherwise the schedule registry's default edge.
    """
    if "tile" in sizes:
        tile = [sizes["tile"]] * spec.ndim
    elif spec.tile is not None:
        tile = list(spec.tile)
    else:
        tile = [DEFAULT_TILE] * spec.ndim
    for axis, name in enumerate(("tile_h", "tile_w")[: spec.ndim]):
        if name in sizes:
            tile[axis] = sizes[name]
    return tuple(tile)


def build_version(
    code: Code,
    key: str,
    label: str,
    mapping: str,
    schedule: str,
    ov: Optional[Sequence[int]] = None,
    *,
    mapping_options: Union[Mapping, Callable[[Mapping], Mapping], None] = None,
    tilable: bool = True,
    notes: str = "",
) -> CodeVersion:
    """The one place a :class:`~repro.codes.base.CodeVersion` is assembled.

    ``mapping`` and ``schedule`` name :data:`~repro.mapping.MAPPINGS` and
    :data:`~repro.schedule.SCHEDULES` entries, built at each size binding
    over the spec's box.  ``mapping_options`` is the registry's option
    mapping, or a function of the size binding returning one.  A
    ``tiled`` schedule takes its tile from :func:`tile_shape`.  The
    version's storage is its mapping's size.
    """
    from repro.codes.base import CodeVersion

    spec = code_to_spec(code)
    stencil = code.stencil

    def mapping_factory(sizes: Mapping[str, int]):
        options = mapping_options
        if callable(options):
            options = options(sizes)
        bounds = spec.bounds_fn(sizes)
        return build_mapping(mapping, stencil, bounds, ov, options)

    def schedule_factory(sizes: Mapping[str, int]):
        options = None
        if schedule == "tiled":
            options = {"tile": tile_shape(spec, sizes)}
        bounds = spec.bounds_fn(sizes)
        return build_schedule(schedule, stencil, bounds, options)

    return CodeVersion(
        key=key,
        label=label,
        code=code,
        mapping_factory=mapping_factory,
        schedule_factory=schedule_factory,
        tiled=schedule == "tiled",
        tilable=tilable,
        notes=notes,
    )


def spec_version(
    code: Code,
    ov: Optional[Sequence[int]] = None,
    key: str = "spec",
) -> CodeVersion:
    """The single version a spec's ``mapping``/``schedule``/``tile``
    directives select."""
    spec = code_to_spec(code)
    ov = tuple(ov) if ov is not None else resolve_uov(spec, code.stencil)
    return build_version(
        code,
        key,
        f"{spec.mapping}/{spec.schedule}",
        spec.mapping,
        spec.schedule,
        ov,
        notes=spec.notes,
    )


def make_versions(
    code: Code, ov: Optional[Sequence[int]] = None
) -> dict[str, CodeVersion]:
    """The standard version family of a spec-synthesized code.

    Natural and OV-mapped versions, each untiled and tiled; the
    interleaved layout, untiled and tiled, when the OV is non-prime in
    2-D; and the schedule-dependent rolling-buffer floor, which cannot
    be tiled.  This is the grid of the paper's Section 5.
    """
    spec = code_to_spec(code)
    ov = tuple(ov) if ov is not None else resolve_uov(spec, code.stencil)
    rows = [("natural", "Natural", "natural"), ("ov", "OV-Mapped", "ov")]
    if len(ov) == 2 and math.gcd(*(abs(c) for c in ov)) > 1:
        rows.append(
            ("ov-interleaved", "OV-Mapped Interleaved", "ov-interleaved")
        )
    versions: dict[str, CodeVersion] = {}
    for key, label, mapping in rows:
        versions[key] = build_version(code, key, label, mapping, "lex", ov)
        versions[f"{key}-tiled"] = build_version(
            code, f"{key}-tiled", f"{label} Tiled", mapping, "tiled", ov
        )
    versions["storage-optimized"] = build_version(
        code,
        "storage-optimized",
        "Storage Optimized",
        "rolling-buffer",
        "lex",
        tilable=False,
        notes="rolling buffer: minimal but schedule-dependent storage",
    )
    return versions
