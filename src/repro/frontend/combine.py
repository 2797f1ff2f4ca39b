"""Combine-expression compilation for spec-synthesized codes.

A :class:`~repro.frontend.spec.StencilSpec` describes its statement's
right-hand side declaratively; this module turns that description into
the executable callables a :class:`~repro.codes.base.Code` needs —
``combine(values, q, ctx)``, its batched NumPy twin, and the positional
IR callable for :class:`~repro.ir.stmt.Assignment`.  Three kinds:

- ``{"kind": "weighted-sum", "weights": [w0, ...]}`` — the weighted
  average every pure stencil uses: ``w0*v0 + w1*v1 + ...``, evaluated
  left-associated so scalar and batched execution agree bit for bit.
- ``{"kind": "expr", "expr": "0.25*v0 + max(v1, 0.0)"}`` — an arbitrary
  arithmetic expression over the source values ``v0..vk``, compiled
  through a whitelisted AST (``+ - * /``, unary minus, ``min``/``max``/
  ``abs``, numeric literals).  ``min``/``max`` lower to pairwise
  ``np.minimum``/``np.maximum`` folds in the batched build, matching
  Python's left-fold semantics exactly.
- ``{"kind": "hook", "name": "..."}`` — an escape hatch for semantics a
  pure expression cannot state (PSM's weight-table lookup): the named
  :class:`SemanticsHook` in :data:`COMBINE_HOOKS` supplies the callables
  (and any extra context / table reads) directly.

Each ``(expression, source count)`` pair is validated and compiled once
per process, behind a bounded cache (:data:`EXPR_CACHE_SIZE` entries):
validating a spec and synthesizing its code, in the CLI or in every
serve request, reuse the same two callables.  Malformed input raises
``ValueError`` with the offending construct on every call (failures are
not cached), which the spec validator converts into a structured
diagnostic.
"""

from __future__ import annotations

import ast
import functools
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from repro.util.registry import Registry

__all__ = [
    "COMBINE_HOOKS",
    "CompiledCombine",
    "SemanticsHook",
    "compile_combine",
]

#: Named semantic bundles for ``{"kind": "hook"}`` combines.  Codes with
#: non-expressible statements (PSM) register here at import time, so a
#: JSON spec can still reference them by name.
COMBINE_HOOKS: Registry["SemanticsHook"] = Registry("combine hook")


@dataclass(frozen=True)
class SemanticsHook:
    """Custom executable semantics a spec can reference by name.

    ``combine``/``combine_batch`` follow the :class:`Code` contract.
    ``ir_combine`` is the positional form for the IR assignment;
    ``make_context`` returns extra per-run context merged over the input
    rule's (tables, strings); ``extra_read_offsets`` models non-stencil
    reads for the address tracer.
    """

    name: str
    combine: Callable
    combine_batch: Optional[Callable] = None
    ir_combine: Optional[Callable] = None
    make_context: Optional[Callable] = None
    extra_read_offsets: Optional[Callable] = None
    extra_read_offsets_batch: Optional[Callable] = None


@dataclass(frozen=True)
class CompiledCombine:
    """The executable forms of one combine description."""

    kind: str
    combine: Callable
    combine_batch: Optional[Callable]
    ir_combine: Callable
    #: Hook extras (None for pure-expression combines).
    hook: Optional[SemanticsHook] = None
    #: Canonical JSON form (for hashing / round-tripping).
    json: Mapping = field(default_factory=dict)


# -- expression compilation ---------------------------------------------------

_ALLOWED_CALLS = ("min", "max", "abs")


def _validate_expr(tree: ast.AST, n_sources: int) -> None:
    names = {f"v{k}" for k in range(n_sources)}
    # Callee Name nodes are judged as part of their Call, not as values.
    callee_names = {
        id(node.func)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    for node in ast.walk(tree):
        if isinstance(node, (ast.Expression, ast.Load)):
            continue
        if isinstance(node, ast.Name) and id(node) in callee_names:
            continue
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)
        ):
            continue
        if isinstance(node, ast.UnaryOp) and isinstance(
            node.op, (ast.USub, ast.UAdd)
        ):
            continue
        if isinstance(node, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.USub, ast.UAdd)):
            continue
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)):
                continue
            raise ValueError(
                f"non-numeric literal {node.value!r} in combine expression"
            )
        if isinstance(node, ast.Name):
            if node.id in names:
                continue
            raise ValueError(
                f"unknown name {node.id!r} in combine expression; sources "
                f"are v0..v{n_sources - 1}"
            )
        if isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in _ALLOWED_CALLS
                and not node.keywords
            ):
                continue
            raise ValueError(
                "only min/max/abs calls are allowed in combine expressions"
            )
        raise ValueError(
            f"disallowed construct {type(node).__name__} in combine "
            "expression (affine arithmetic, min/max/abs only)"
        )


class _Lowering(ast.NodeTransformer):
    """Rewrite ``vK`` -> ``values[K]`` and (batched) min/max -> numpy folds."""

    def __init__(self, batched: bool):
        self.batched = batched

    def visit_Name(self, node: ast.Name):
        if node.id.startswith("v") and node.id[1:].isdigit():
            return ast.Subscript(
                value=ast.Name(id="values", ctx=ast.Load()),
                slice=ast.Constant(value=int(node.id[1:])),
                ctx=ast.Load(),
            )
        return node

    def visit_Call(self, node: ast.Call):
        self.generic_visit(node)
        if not self.batched or not isinstance(node.func, ast.Name):
            return node
        fold = {"min": "minimum", "max": "maximum"}.get(node.func.id)
        if fold is None or len(node.args) < 2:
            return node
        # max(a, b, c) -> np.maximum(np.maximum(a, b), c): the same
        # left fold Python's variadic max performs.
        out = node.args[0]
        for arg in node.args[1:]:
            out = ast.Call(
                func=ast.Attribute(
                    value=ast.Name(id="np", ctx=ast.Load()),
                    attr=fold,
                    ctx=ast.Load(),
                ),
                args=[out, arg],
                keywords=[],
            )
        return out


def _compile_fn(tree: ast.Expression, batched: bool) -> Callable:
    import numpy as np

    lowered = ast.fix_missing_locations(
        _Lowering(batched).visit(ast.parse(ast.unparse(tree), mode="eval"))
    )
    body = ast.unparse(lowered)
    namespace: dict = {"np": np, "min": min, "max": max, "abs": abs}
    exec(  # noqa: S102 - AST-whitelisted arithmetic only
        f"def _combine(values, q, ctx):\n    return {body}\n", namespace
    )
    return namespace["_combine"]


#: Bound of the per-process expression cache.  A server validates specs
#: from its clients, so the cache must not grow without limit.
EXPR_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=EXPR_CACHE_SIZE)
def _expr_callables(expr: str, n_sources: int) -> tuple[Callable, Callable]:
    """The scalar and batched callables of one expression, compiled once.

    Only the two functions are cached, never a :class:`CompiledCombine`:
    its ``json`` dict ends up inside specs, which callers own.  A
    malformed expression raises and is not cached.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse combine expression {expr!r}: {exc}")
    _validate_expr(tree, n_sources)
    return _compile_fn(tree, batched=False), _compile_fn(tree, batched=True)


def _expr_combine(expr: str, n_sources: int, json_form: Mapping) -> CompiledCombine:
    scalar, batch = _expr_callables(expr, n_sources)
    return CompiledCombine(
        kind="expr",
        combine=scalar,
        combine_batch=batch,
        ir_combine=lambda *vals: scalar(vals, None, None),
        json=dict(json_form),
    )


def compile_combine(combine: Mapping, n_sources: int) -> CompiledCombine:
    """Compile one combine description against ``n_sources`` sources."""
    if not isinstance(combine, Mapping) or "kind" not in combine:
        raise ValueError(
            f"combine must be a mapping with a 'kind' key, got {combine!r}"
        )
    kind = combine["kind"]
    if kind == "weighted-sum":
        weights = combine.get("weights")
        if not isinstance(weights, (list, tuple)) or not weights:
            raise ValueError("weighted-sum combine needs a 'weights' list")
        if len(weights) != n_sources:
            raise ValueError(
                f"weighted-sum has {len(weights)} weights for "
                f"{n_sources} source distances"
            )
        weights = [float(w) for w in weights]
        expr = " + ".join(f"{w!r}*v{k}" for k, w in enumerate(weights))
        compiled = _expr_combine(expr, n_sources, combine)
        return CompiledCombine(
            kind="weighted-sum",
            combine=compiled.combine,
            combine_batch=compiled.combine_batch,
            ir_combine=compiled.ir_combine,
            json={"kind": "weighted-sum", "weights": weights},
        )
    if kind == "expr":
        expr = combine.get("expr")
        if not isinstance(expr, str) or not expr.strip():
            raise ValueError("expr combine needs a non-empty 'expr' string")
        return _expr_combine(expr, n_sources, {"kind": "expr", "expr": expr})
    if kind == "hook":
        name = combine.get("name")
        if not isinstance(name, str) or not name:
            raise ValueError("hook combine needs a 'name' string")
        # Hooks register when their code's module is imported, which a
        # spec read from a file or a request body never does by itself.
        import repro.codes  # noqa: F401

        hook = COMBINE_HOOKS.get(name)  # raises UnknownNameError
        ir_combine = hook.ir_combine or (
            lambda *vals: hook.combine(vals, None, None)
        )
        return CompiledCombine(
            kind="hook",
            combine=hook.combine,
            combine_batch=hook.combine_batch,
            ir_combine=ir_combine,
            hook=hook,
            json={"kind": "hook", "name": name},
        )
    raise ValueError(
        f"unknown combine kind {kind!r}; one of "
        "['weighted-sum', 'expr', 'hook']"
    )
