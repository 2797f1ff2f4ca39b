"""Generate compilable, self-contained C for a code version.

The paper's experiments are C compiled with ``gcc -O2``; this generator
emits the equivalent C for any benchmark version — and, since the native
execution tier landed, the output is *hardened for compilation*, not just
inspection:

- the storage declaration, loop nest, and mapped references are fully
  concrete (sizes, tile shapes, and mapping constants folded in);
- ``combine`` is lowered to a concrete inlined expression for
  spec-expressed codes (``weighted-sum`` / ``expr`` combines go through
  the same AST whitelist as :mod:`repro.frontend.combine`, printed as
  C99 hex-float constants so the compiled arithmetic is bit-identical to
  the interpreter's); only :class:`~repro.frontend.combine.SemanticsHook`
  codes (psm's data-dependent table lookup) keep the function-pointer
  form;
- boundary reads index a caller-filled *halo buffer* — a row-major array
  over the extended box of out-of-ISG producers (:func:`halo_geometry`)
  — so the compiled object needs no Python callback on the hot path;
- pointers are ``restrict``-qualified and mapping ``%`` is emitted in
  the sign-safe Euclidean form, matching Python's floor semantics.

:mod:`repro.codegen.build` compiles this output into a shared object and
:mod:`repro.execution.native` runs it through ctypes.  One translation
unit may hold several kernels (:func:`translation_unit`): the native
engine builds every version of one batch into one object, so a batch
costs one compiler run.  The differential
test suite holds the compiled results bit-for-bit equal to both the
scalar interpreter and the vectorized NumPy engine.  A structural test
pass additionally checks text properties (balanced braces, one store
through the mapping, the right loop bounds) and compile-checks the
emitted source whenever a toolchain is present.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.codes.base import CodeVersion
from repro.execution.gather import halo_geometry
from repro.schedule.lex import InterchangedSchedule, LexicographicSchedule
from repro.schedule.tiling import TiledSchedule

__all__ = [
    "CKernel",
    "combine_to_c",
    "generate_c",
    "kernel_symbols",
    "lower_kernel",
    "shifted_indices",
    "translation_unit",
]

#: The hook-combine callback type every translation unit declares once
#: (``combine`` is NULL / unused for inlined-combine codes).
_COMBINE_TYPEDEF = "typedef double (*combine_fn)(const double *v, const int *q);"

_FP_NOTE = [
    " * compile with -ffp-contract=off: FMA contraction would break",
    " * bit-identity with the interpreter.",
]


def kernel_symbols(count: int) -> list[tuple[str, str]]:
    """``(entry point, kernel-time global)`` of each kernel of a unit.

    A one-kernel unit, which is every :func:`generate_c` output, exports
    ``run`` (and ``repro_kernel_ns`` when profiled).  Kernel ``k`` of a
    unit of several exports ``run_k`` (and ``repro_kernel_ns_k``).
    """
    if count == 1:
        return [("run", "repro_kernel_ns")]
    return [(f"run_{k}", f"repro_kernel_ns_{k}") for k in range(count)]


def _hex_double(value: float) -> str:
    """A C99 hexadecimal double literal: parses to the exact bit pattern
    of the Python float, so compiled constants never round differently."""
    value = float(value)
    if value == int(value) and abs(value) < 1 << 53:
        # Small integral values print exactly in decimal; keep them
        # readable (0.0, 2.0, -1.0) instead of 0x0p+0.
        return f"{value:.1f}"
    return value.hex()


class _CombineLowering:
    """Lower a whitelisted combine AST to a C expression over ``v[k]``.

    Mirrors the semantics of :mod:`repro.frontend.combine` exactly:
    left-associated arithmetic, variadic ``min``/``max`` as left folds of
    the pairwise helpers (which replicate Python's ``b > a ? b : a``
    tie behaviour), ``abs`` as ``fabs``.  Tracks which helpers the
    expression needs so the emitter only prints the ones used.
    """

    def __init__(self):
        self.helpers: set[str] = set()

    def lower(self, node: ast.AST) -> str:
        if isinstance(node, ast.Expression):
            return self.lower(node.body)
        if isinstance(node, ast.Constant):
            return _hex_double(node.value)
        if isinstance(node, ast.Name):
            return f"v[{int(node.id[1:])}]"
        if isinstance(node, ast.BinOp):
            op = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}[
                type(node.op)
            ]
            return f"({self.lower(node.left)} {op} {self.lower(node.right)})"
        if isinstance(node, ast.UnaryOp):
            inner = self.lower(node.operand)
            return f"(-{inner})" if isinstance(node.op, ast.USub) else inner
        if isinstance(node, ast.Call):
            name = node.func.id
            args = [self.lower(a) for a in node.args]
            if name == "abs":
                self.helpers.add("fabs")
                return f"fabs({args[0]})"
            helper = {"min": "repro_min2", "max": "repro_max2"}[name]
            self.helpers.add(helper)
            out = args[0]
            for arg in args[1:]:
                out = f"{helper}({out}, {arg})"
            return out
        raise NotImplementedError(
            f"no C lowering for AST node {type(node).__name__}"
        )


def combine_to_c(combine_json: Mapping, n_sources: int) -> tuple[str, set]:
    """The inlined C expression (over ``v[0..n)``) for one combine
    description, plus the set of helper definitions it needs.

    Raises ``NotImplementedError`` for ``hook`` combines — those keep
    the function-pointer form.
    """
    kind = combine_json.get("kind")
    if kind == "weighted-sum":
        weights = combine_json["weights"]
        if len(weights) != n_sources:
            raise ValueError(
                f"weighted-sum has {len(weights)} weights for "
                f"{n_sources} sources"
            )
        # Left-associated multiply-adds: exactly the expression the
        # scalar/batched Python combines evaluate.
        expr = " + ".join(
            f"{_hex_double(w)} * v[{k}]" for k, w in enumerate(weights)
        )
        return expr, set()
    if kind == "expr":
        from repro.frontend.combine import _validate_expr

        tree = ast.parse(combine_json["expr"], mode="eval")
        _validate_expr(tree, n_sources)
        lowering = _CombineLowering()
        return lowering.lower(tree), lowering.helpers
    raise NotImplementedError(
        f"combine kind {kind!r} has no inlined C form (hooks keep the "
        "function-pointer contract)"
    )


_HELPER_DEFS = {
    # Python's variadic max/min keep the *later* argument only when it is
    # strictly greater/smaller — the ternaries below reproduce that tie
    # behaviour (including signed zeros) bit for bit.
    "repro_max2": (
        "static double repro_max2(double a, double b) "
        "{ return b > a ? b : a; }"
    ),
    "repro_min2": (
        "static double repro_min2(double a, double b) "
        "{ return b < a ? b : a; }"
    ),
}


def generate_c(
    version: CodeVersion,
    sizes: Mapping[str, int],
    profile: bool = False,
) -> str:
    """Emit a self-contained C translation unit for one code version.

    The exported entry point is::

        void run(double *restrict storage,
                 const double *restrict halo,
                 double (*combine)(const double *v, const int *q));

    ``storage`` is the mapped temporary buffer (``mapping.size`` doubles,
    zero-initialised), ``halo`` the boundary-input buffer laid out by
    :func:`halo_geometry`, and ``combine`` the per-iteration semantics
    callback — only called (and only required) when the code's combine
    is a :class:`~repro.frontend.combine.SemanticsHook`; spec-expressed
    combines are inlined and ignore the pointer.

    ``profile=True`` additionally exports a ``double repro_kernel_ns``
    global and brackets the loop nest with ``clock_gettime(MONOTONIC)``
    so the caller can read the kernel's own wall time, excluding FFI and
    halo setup.  The timing is outside the nest, so the computed values
    stay bit-identical to the unprofiled object (which has a different
    content hash and therefore its own cache slot).
    """
    return translation_unit([lower_kernel(version, sizes)], profile)


@dataclass(frozen=True)
class CKernel:
    """One version lowered to C, ready to be placed in a unit.

    ``notes`` are its header-comment lines, ``helpers`` the prelude
    definitions its combine needs, and ``nest`` its loop nest, indented
    for a function body.
    """

    notes: tuple[str, ...]
    helpers: frozenset[str]
    nest: tuple[str, ...]


def lower_kernel(version: CodeVersion, sizes: Mapping[str, int]) -> CKernel:
    """Lower one version at concrete sizes; the lowering every unit uses.

    Raises ``NotImplementedError`` for a schedule with no C form.
    """
    code = version.code
    indices = list(code.program.loop.indices)
    bounds = code.bounds(sizes)
    mapping = version.mapping(sizes)
    schedule = version.schedule(sizes)
    spec = getattr(code, "spec", None)
    combine_json = spec.combine if spec is not None else {"kind": "hook"}

    inlined = None
    helpers: set = set()
    try:
        inlined, helpers = combine_to_c(
            combine_json, len(code.source_distances)
        )
    except NotImplementedError:
        pass

    ext_lo, ext_hi, strides = halo_geometry(code.source_distances, bounds)
    halo_size = strides[0] * (ext_hi[0] - ext_lo[0] + 1)

    combine_note = (
        "inlined " + combine_json.get("kind", "?")
        if inlined is not None
        else f"function pointer (hook {combine_json.get('name', '?')!r})"
    )
    notes = (
        f" * code: {code.name}, version: {version.key}",
        f" * schedule: {schedule.name}",
        f" * mapping: {mapping!r} ({mapping.size} doubles)",
        f" * combine: {combine_note}",
        f" * halo: box {list(ext_lo)}..{list(ext_hi)} row-major, "
        f"{halo_size} doubles",
    )
    depth, loops = _loops_c(schedule, indices, bounds)
    nest = ["    " + ln for ln in loops]
    pad = "    " * (depth + 1)
    body = _body_c(version, mapping, indices, bounds, ext_lo, strides, inlined)
    nest.extend(pad + ln for ln in body)
    for k in range(depth, 0, -1):
        nest.append("    " * k + "}")
    return CKernel(notes, frozenset(helpers), tuple(nest))


def translation_unit(kernels: Sequence[CKernel], profile: bool = False) -> str:
    """One self-contained translation unit exporting every kernel.

    The prelude (includes, combine helpers, the ``combine_fn`` typedef)
    is written once, then one entry point per kernel, named by
    :func:`kernel_symbols`.  ``profile=True`` gives each kernel its own
    kernel-time global; see :func:`generate_c`.
    """
    symbols = kernel_symbols(len(kernels))
    lines = ["/* generated by repro.codegen.c_gen"]
    for (entry, _), kernel in zip(symbols, kernels):
        if len(kernels) > 1:
            lines.append(f" * {entry}():")
        lines.extend(kernel.notes)
    lines.extend(_FP_NOTE)
    lines.append(" */")
    if profile:
        lines.append("#include <time.h>")
        for entry, timer in symbols:
            lines.append(
                f"/* kernel-only wall time of the last {entry}() call,"
            )
            lines.append(" * readable through the dynamic symbol table. */")
            lines.append(f"double {timer};")
        lines.append("")
    helpers = set().union(*(kernel.helpers for kernel in kernels))
    if "fabs" in helpers:
        lines.append("#include <math.h>")
        helpers.discard("fabs")
    for helper in sorted(helpers):
        lines.append(_HELPER_DEFS[helper])
    if helpers:
        lines.append("")
    lines.append(_COMBINE_TYPEDEF)
    for (entry, timer), kernel in zip(symbols, kernels):
        lines.append("")
        lines.extend(_function_c(entry, timer if profile else None, kernel))
    return "\n".join(lines) + "\n"


def _function_c(entry: str, timer, kernel: CKernel) -> list[str]:
    """One kernel's entry point; ``timer`` names its kernel-time global
    when the unit is profiled, else ``None``."""
    indent = " " * len(f"void {entry}(")
    lines = [
        f"void {entry}(double *restrict storage,",
        f"{indent}const double *restrict halo,",
        f"{indent}combine_fn combine) {{",
    ]
    if timer is not None:
        lines.append("    struct timespec repro_t0, repro_t1;")
        lines.append("    clock_gettime(CLOCK_MONOTONIC, &repro_t0);")
    lines.extend(kernel.nest)
    if timer is not None:
        lines.append("    clock_gettime(CLOCK_MONOTONIC, &repro_t1);")
        lines.append(
            f"    {timer} = (repro_t1.tv_sec - repro_t0.tv_sec) * 1e9"
        )
        lines.append(
            "        + (repro_t1.tv_nsec - repro_t0.tv_nsec);"
        )
    lines.append("}")
    return lines


def _loops_c(schedule, indices, bounds):
    if isinstance(schedule, LexicographicSchedule):
        loops = []
        for k, (name, (lo, hi)) in enumerate(zip(indices, bounds)):
            loops.append(
                "    " * k
                + f"for (int {name} = {lo}; {name} <= {hi}; {name}++) {{"
            )
        return len(indices), loops

    if isinstance(schedule, InterchangedSchedule):
        loops = []
        for k, axis in enumerate(schedule.perm):
            lo, hi = bounds[axis]
            name = indices[axis]
            loops.append(
                "    " * k
                + f"for (int {name} = {lo}; {name} <= {hi}; {name}++) {{"
            )
        return len(indices), loops

    if isinstance(schedule, TiledSchedule):
        if len(indices) != 2:
            raise NotImplementedError("C tiling codegen supports depth 2")
        skew = schedule.skew
        if skew[0] != (1, 0) or skew[1][1] != 1:
            raise NotImplementedError(
                "C tiling codegen supports lower-triangular skews"
            )
        f = skew[1][0]
        (lo0, hi0), (lo1, hi1) = bounds
        ylo1 = lo1 + (f * lo0 if f >= 0 else f * hi0)
        yhi1 = hi1 + (f * hi0 if f >= 0 else f * lo0)
        th, tw = schedule.tile_sizes
        th = (hi0 - lo0 + 1) if th is None else th
        tw = (yhi1 - ylo1 + 1) if tw is None else tw
        a, b = indices
        loops = [
            f"for (int t0 = {lo0}; t0 <= {hi0}; t0 += {th}) {{",
            f"    for (int t1 = {ylo1}; t1 <= {yhi1}; t1 += {tw}) {{",
            f"        for (int {a} = t0; "
            f"{a} <= (t0 + {th - 1} < {hi0} ? t0 + {th - 1} : {hi0}); "
            f"{a}++) {{",
            f"            for (int y1 = t1; "
            f"y1 <= (t1 + {tw - 1} < {yhi1} ? t1 + {tw - 1} : {yhi1}); "
            f"y1++) {{",
            f"                int {b} = y1 - {f} * {a};",
            f"                if ({b} < {lo1} || {b} > {hi1}) continue;",
        ]
        return 4, loops

    raise NotImplementedError(
        f"no C codegen for schedule {type(schedule).__name__}"
    )


def shifted_indices(indices, distance) -> list[str]:
    """The producer ``q - d`` as index source text, valid in C and in
    Python alike: ``i``, ``(i - 2)``, ``(i + 1)``."""
    return [
        name if c == 0 else f"({name} - {c})" if c > 0 else f"({name} + {-c})"
        for name, c in zip(indices, distance)
    ]


def _halo_index_c(indices, distance, ext_lo, strides) -> str:
    """The flattened halo offset of producer ``q - d`` as a C expression.

    ``sum_k strides[k] * (q_k - d_k - ext_lo[k])`` folded into
    ``sum_k strides[k] * q_k + C`` so the emitted address is one affine
    form, like the mapped references.
    """
    from repro.mapping.expr import affine

    constant = -sum(
        s * (d + lo) for s, d, lo in zip(strides, distance, ext_lo)
    )
    return affine(list(strides), list(indices), constant).to_c()


def _body_c(version, mapping, indices, bounds, ext_lo, strides, inlined):
    code = version.code
    dim = len(bounds)
    lo = [b[0] for b in bounds]
    hi = [b[1] for b in bounds]
    lines = [f"double v[{len(code.source_distances)}];"]
    for n, d in enumerate(code.source_distances):
        terms = shifted_indices(indices, d)
        guard = " && ".join(
            f"{l} <= {t} && {t} <= {h}" for l, t, h in zip(lo, terms, hi)
        )
        addr = mapping.expression(terms).to_c()
        halo_addr = _halo_index_c(indices, d, ext_lo, strides)
        lines.append(f"if ({guard}) {{")
        lines.append(f"    v[{n}] = storage[{addr}];")
        lines.append("} else {")
        lines.append(f"    v[{n}] = halo[{halo_addr}];")
        lines.append("}")
    store = mapping.expression(indices).to_c()
    if inlined is not None:
        lines.append(f"storage[{store}] = {inlined};")
    else:
        q = "{" + ", ".join(indices) + "}"
        lines.append(f"int qq[{dim}] = {q};")
        lines.append(f"storage[{store}] = combine(v, qq);")
    return lines
