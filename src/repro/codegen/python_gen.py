"""Generate runnable Python source for a code version.

The generated function has the signature::

    def run(storage, ctx, combine, input_value):
        ...
        return storage

mirroring the interpreter's contract exactly: ``storage`` is the flat
buffer sized by the version's mapping, ``combine`` / ``input_value`` are
the code's semantic callables, and every address is computed by the
mapping's own expression, inlined as source text.  The test suite
``exec``'s the result and asserts bit-identical outputs against the
interpreter — so the printed mappings, the schedules' loop structures,
and the unrolling transformation are all verified executable artifacts,
not documentation.

Supported schedules: lexicographic, interchange, wavefront (unit
weights), and 2-D tiling with a lower-triangular skew — everything the
benchmark codes use.  ``unroll_mod=True`` applies the paper's mod-removal
(Section 4.2): the modterm's value is hoisted (when constant along the
inner loop) or baked into unrolled copies (when it cycles).
"""

from __future__ import annotations

from typing import Mapping

from repro.codegen.c_gen import shifted_indices
from repro.codegen.unroll import unroll_offsets, unrollable_modulus
from repro.codes.base import CodeVersion
from repro.schedule.lex import InterchangedSchedule, LexicographicSchedule
from repro.schedule.tiling import TiledSchedule
from repro.schedule.wavefront import WavefrontSchedule

__all__ = ["generate_python", "build_runner"]


def generate_python(
    version: CodeVersion,
    sizes: Mapping[str, int],
    unroll_mod: bool = False,
) -> str:
    """Emit the full source of ``run(storage, ctx, combine, input_value)``."""
    code = version.code
    indices = list(code.program.loop.indices)
    bounds = code.bounds(sizes)
    mapping = version.mapping(sizes)
    schedule = version.schedule(sizes)

    if unroll_mod and getattr(mapping, "gcd", 1) > 1:
        if not isinstance(schedule, LexicographicSchedule) or len(indices) != 2:
            raise NotImplementedError(
                "mod-removal codegen supports 2-D lexicographic loops"
            )
        return _generate_unrolled(version, sizes, mapping, indices, bounds)

    body = _body_lines(version, sizes, mapping, indices, bounds)
    loops, depth = _loop_structure(schedule, indices, bounds)

    lines = [
        f"def run(storage, ctx, combine, input_value):",
        f"    # {code.name} / {version.key}: schedule {schedule.name},",
        f"    # mapping {mapping!r}",
    ]
    lines.extend("    " + ln for ln in loops)
    pad = "    " * (depth + 1)
    lines.extend(pad + ln for ln in body)
    lines.append("    return storage")
    return "\n".join(lines) + "\n"


def build_runner(source: str):
    """``exec`` generated source and return the ``run`` callable."""
    namespace: dict = {}
    exec(source, namespace)  # noqa: S102 - our own generated code
    return namespace["run"]


# -- loop structures ----------------------------------------------------------


def _loop_structure(schedule, indices, bounds):
    """Return (source lines, nesting depth at the body)."""
    if isinstance(schedule, LexicographicSchedule):
        lines = []
        for k, (name, (lo, hi)) in enumerate(zip(indices, bounds)):
            lines.append("    " * k + f"for {name} in range({lo}, {hi + 1}):")
        return lines, len(indices)

    if isinstance(schedule, InterchangedSchedule):
        lines = []
        for k, axis in enumerate(schedule.perm):
            lo, hi = bounds[axis]
            lines.append(
                "    " * k + f"for {indices[axis]} in range({lo}, {hi + 1}):"
            )
        return lines, len(indices)

    if isinstance(schedule, WavefrontSchedule):
        if len(indices) != 2 or schedule.weights != (1, 1):
            raise NotImplementedError(
                "wavefront codegen supports 2-D unit weights only"
            )
        (lo0, hi0), (lo1, hi1) = bounds
        a, b = indices
        lines = [
            f"for _s in range({lo0 + lo1}, {hi0 + hi1 + 1}):",
            f"    for {a} in range(max({lo0}, _s - {hi1}), "
            f"min({hi0}, _s - {lo1}) + 1):",
            f"        {b} = _s - {a}",
        ]
        return lines, 2

    if isinstance(schedule, TiledSchedule):
        return _tiled_structure(schedule, indices, bounds)

    raise NotImplementedError(
        f"no Python codegen for schedule {type(schedule).__name__}"
    )


def _tiled_structure(schedule: TiledSchedule, indices, bounds):
    if len(indices) != 2:
        raise NotImplementedError("tiled codegen supports depth-2 nests")
    skew = schedule.skew
    if skew[0] != (1, 0) or skew[1][1] != 1:
        raise NotImplementedError(
            "tiled codegen supports lower-triangular skews [[1,0],[f,1]]"
        )
    f = skew[1][0]
    (lo0, hi0), (lo1, hi1) = bounds
    # Image box under y0 = q0, y1 = q1 + f*q0 (f >= 0 by construction).
    ylo0, yhi0 = lo0, hi0
    if f >= 0:
        ylo1, yhi1 = lo1 + f * lo0, hi1 + f * hi0
    else:
        ylo1, yhi1 = lo1 + f * hi0, hi1 + f * lo0
    th, tw = schedule.tile_sizes
    th = (yhi0 - ylo0 + 1) if th is None else th
    tw = (yhi1 - ylo1 + 1) if tw is None else tw
    a, b = indices
    lines = [
        f"for _t0 in range({ylo0}, {yhi0 + 1}, {th}):",
        f"    for _t1 in range({ylo1}, {yhi1 + 1}, {tw}):",
        f"        for {a} in range(_t0, min(_t0 + {th - 1}, {yhi0}) + 1):",
        f"            for _y1 in range(_t1, "
        f"min(_t1 + {tw - 1}, {yhi1}) + 1):",
        f"                {b} = _y1 - {f} * {a}",
        f"                if not ({lo1} <= {b} <= {hi1}):",
        f"                    continue",
    ]
    return lines, 4


# -- loop bodies -----------------------------------------------------------------


def _body_lines(version, sizes, mapping, indices, bounds):
    """The statement: guarded source loads, combine, mapped store."""
    code = version.code
    lines = []
    lo = [b[0] for b in bounds]
    hi = [b[1] for b in bounds]
    value_names = []
    for n, d in enumerate(code.source_distances):
        terms = [
            f"{name} - {c}" if c > 0 else (f"{name} + {-c}" if c < 0 else name)
            for name, c in zip(indices, d)
        ]
        point = "(" + ", ".join(terms) + ")"
        guard = " and ".join(
            f"{l} <= {t} <= {h}" for l, t, h in zip(lo, terms, hi)
        )
        expr = mapping.expression(shifted_indices(indices, d)).to_python()
        value_names.append(f"_v{n}")
        lines.append(
            f"_v{n} = storage[{expr}] if ({guard}) "
            f"else input_value({point}, ctx)"
        )
    q = "(" + ", ".join(indices) + ")"
    store = mapping.expression(indices).to_python()
    lines.append(
        f"storage[{store}] = combine(({', '.join(value_names)},), {q}, ctx)"
    )
    return lines


def _generate_unrolled(version, sizes, mapping, indices, bounds):
    """Lexicographic 2-D loop with the modterm removed (Section 4.2).

    Two shapes, covering every non-prime mapping in the benchmark suite:

    - the class functional is constant along the inner loop (the 5-point
      stencil's ``t mod 2``): each reference's class is hoisted to the
      outer loop, one amortised ``mod`` per row;
    - the class advances along the inner loop and is independent of the
      outer index mod ``g`` (PSM's ``j mod 2``): the inner loop unrolls by
      the period, each copy's addresses specialised to a constant class
      via :meth:`expression_with_class`, with a generic cleanup loop for
      the remainder iterations.
    """
    code = version.code
    a, b = indices
    (lo0, hi0), (lo1, hi1) = bounds
    g = mapping.gcd
    beta = mapping.class_row
    period = unrollable_modulus(mapping, 1)
    outer_step = beta[0] % g

    header = [
        "def run(storage, ctx, combine, input_value):",
        f"    # {code.name} / {version.key}: lexicographic, "
        f"mod removed by unrolling (period {period})",
        f"    for {a} in range({lo0}, {hi0 + 1}):",
    ]

    if period == 1:
        # Case A: class constant along the inner loop; hoist per row.
        # Per reference the class differs by a constant: hoist each.
        hoists = []
        ref_class_vars = []
        for n, d in enumerate(code.source_distances + ((0, 0),)):
            delta = (beta[0] * d[0] + beta[1] * d[1]) % g
            var = f"_c{n}"
            hoists.append(
                f"        {var} = ({beta[0]} * ({a}) - {delta}) % {g}"
                if beta[0]
                else f"        {var} = ({-delta}) % {g}"
            )
            ref_class_vars.append(var)
        body = _unrolled_body(
            version, mapping, indices, bounds, ref_class_vars, shift_inner=0
        )
        lines = header + hoists
        lines.append(f"        for {b} in range({lo1}, {hi1 + 1}):")
        lines.extend("            " + ln for ln in body)
        lines.append("    return storage")
        return "\n".join(lines) + "\n"

    if outer_step != 0:
        raise NotImplementedError(
            "modterm depends on both loops; generic generation keeps the mod"
        )
    # Case B: unroll the inner loop by the period.  The class of each
    # reference in copy k; the outer index adds nothing (outer_step is 0).
    per_reference = [
        unroll_offsets(mapping, 1, (-d[0], lo1 - d[1]))
        for d in code.source_distances + ((0, 0),)
    ]
    lines = list(header)
    main_hi = lo1 + ((hi1 - lo1 + 1) // period) * period - 1
    lines.append(
        f"        for {b} in range({lo1}, {main_hi + 1}, {period}):"
    )
    for k in range(period):
        classes = [offsets[k] for offsets in per_reference]
        body = _unrolled_body(
            version, mapping, indices, bounds, classes, shift_inner=k
        )
        lines.extend("            " + ln for ln in body)
    # Cleanup loop: generic body with the mod kept (a handful of
    # iterations; this is what unrolled compiler output looks like too).
    lines.append(
        f"        for {b} in range({main_hi + 1}, {hi1 + 1}):"
    )
    generic = _body_lines(version, sizes, mapping, indices, bounds)
    lines.extend("            " + ln for ln in generic)
    lines.append("    return storage")
    return "\n".join(lines) + "\n"


def _unrolled_body(version, mapping, indices, bounds, classes, shift_inner):
    """Body lines with per-reference class constants or hoisted class vars.

    ``classes[n]`` is either an ``int`` (compile-time class) or the name of
    a hoisted variable holding the class; the last entry is the store's.
    ``shift_inner`` displaces the inner index (for unrolled copy k).
    """
    code = version.code
    a, b = indices
    lo = [bd[0] for bd in bounds]
    hi = [bd[1] for bd in bounds]
    lines = []
    value_names = []

    def point_terms(d, extra_inner):
        t0 = f"{a} - {d[0]}" if d[0] > 0 else (f"{a} + {-d[0]}" if d[0] else a)
        inner_off = extra_inner - d[1]
        if inner_off > 0:
            t1 = f"{b} + {inner_off}"
        elif inner_off < 0:
            t1 = f"{b} - {-inner_off}"
        else:
            t1 = b
        return t0, t1

    def addr(d, extra_inner, cls):
        t0, t1 = point_terms(d, extra_inner)
        names = [f"({t0})" if " " in t0 else t0, f"({t1})" if " " in t1 else t1]
        if isinstance(cls, int):
            return mapping.expression_with_class(names, cls).to_python()
        expr = mapping.expression_with_class(names, 0).to_python()
        scale = mapping.class_stride
        term = cls if scale == 1 else f"{cls} * {scale}"
        return f"{expr} + {term}"

    for n, d in enumerate(code.source_distances):
        t0, t1 = point_terms(d, shift_inner)
        guard = (
            f"{lo[0]} <= {t0} <= {hi[0]} and {lo[1]} <= {t1} <= {hi[1]}"
        )
        lines.append(
            f"_v{n} = storage[{addr(d, shift_inner, classes[n])}] "
            f"if ({guard}) else input_value(({t0}, {t1}), ctx)"
        )
        value_names.append(f"_v{n}")
    qt0, qt1 = point_terms((0, 0), shift_inner)
    lines.append(
        f"storage[{addr((0, 0), shift_inner, classes[-1])}] = "
        f"combine(({', '.join(value_names)},), ({qt0}, {qt1}), ctx)"
    )
    return lines
