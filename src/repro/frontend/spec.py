"""``StencilSpec``: the declarative description a user writes.

A spec is a JSON document (or the equivalent dict, or a
:class:`SpecBuilder` chain) naming everything the paper's flow needs to
run a loop nest end to end — dimensions, loop bounds, source distances,
the combine expression, the boundary/input rule, costs — plus the
*directive* fields that steer the pipeline (default sizes, mapping and
schedule choice, tile shape, an optional UOV override).  Example::

    {
      "name": "heat7",
      "indices": ["t", "x"],
      "bounds": [[1, "T"], [0, "L-1"]],
      "distances": [[1, 3], [1, 2], [1, 1], [1, 0], [1, -1], [1, -2], [1, -3]],
      "combine": {"kind": "weighted-sum",
                  "weights": [0.02, 0.08, 0.2, 0.4, 0.2, 0.08, 0.02]},
      "inputs": {"kind": "padded-line", "pad": 3, "pad_value": 0.25},
      "sizes": {"T": 6, "L": 24}
    }

:func:`validate_spec` turns raw JSON into a canonical
:class:`StencilSpec` or raises :class:`SpecError` carrying structured
:class:`~repro.analysis.diag.Diagnostics` (codes ``SPEC001``-``SPEC008``)
— malformed input never surfaces as a traceback.  The *structural*
fields (everything except directives) identify the program for cache
hashing; see :meth:`StencilSpec.structural_json`.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, Union

from repro.analysis.diag import Diagnostics, Severity
from repro.frontend.combine import compile_combine
from repro.frontend.inputs import build_input_rule
from repro.ir.affine import AffineExpr

__all__ = [
    "SpecBuilder",
    "SpecError",
    "StencilSpec",
    "TILE_BINDINGS",
    "validate_spec",
]

#: Diagnostic codes emitted by spec validation.
#:
#: ========  =====================================================
#: SPEC001   missing or ill-typed field
#: SPEC002   bad distance/UOV arity or non-lex-positive distance
#: SPEC003   non-affine (or index-dependent) loop bound
#: SPEC004   size symbol without a default binding
#: SPEC005   combine expression error (unknown kind, weight arity, ...)
#: SPEC006   input rule error (unknown rule, bad parameter)
#: SPEC007   unknown mapping/schedule directive
#: SPEC008   unusable size bindings (non-positive, empty space)
#: ========  =====================================================

_DIRECTIVE_FIELDS = ("sizes", "mapping", "schedule", "tile", "uov", "seed", "notes")

#: The names a size binding may carry besides size symbols: the tile
#: edges :func:`repro.frontend.synth.tile_shape` reads (every axis,
#: axis 0, axis 1).
TILE_BINDINGS = ("tile", "tile_h", "tile_w")

#: Bound strings parsed once and shared between specs (an ``AffineExpr``
#: is immutable): every trace block of a spec code evaluates the bounds,
#: every validation lists their size symbols, and parsing costs ten times
#: as much as evaluating.  Bounded, because a server validates specs from
#: its clients.
_parse_bound = functools.lru_cache(maxsize=1024)(AffineExpr.parse)


class SpecError(ValueError):
    """Validation failed; ``.diagnostics`` holds the structured findings."""

    def __init__(self, diagnostics: Diagnostics, subject: str):
        self.diagnostics = diagnostics
        self.subject = subject
        super().__init__(
            f"invalid stencil spec {subject!r}: {diagnostics.summary()}"
        )


@dataclass(frozen=True)
class StencilSpec:
    """A validated, canonical stencil specification.

    Instances are produced by :func:`validate_spec` (or the builder) and
    are immutable; ``to_json()``/``from_json()`` round-trip exactly.
    """

    # -- structural fields (identify the program; hashed for caching) ----
    name: str
    indices: tuple[str, ...]
    bounds: tuple[tuple[Union[int, str], Union[int, str]], ...]
    distances: tuple[tuple[int, ...], ...]
    combine: Mapping[str, Any]
    inputs: Mapping[str, Any]
    output_axis: int = 0
    array: str = "A"
    costs: Mapping[str, int] = field(
        default_factory=lambda: {"flops": 0, "int_ops": 0, "branches": 0}
    )
    # -- directive fields (steer the pipeline; not part of identity) -----
    sizes: Mapping[str, int] = field(default_factory=dict)
    mapping: str = "ov"
    schedule: str = "lex"
    tile: Optional[tuple[int, ...]] = None
    uov: Optional[tuple[int, ...]] = None
    seed: int = 0
    notes: str = ""

    # -- derived ----------------------------------------------------------

    @property
    def ndim(self) -> int:
        return len(self.indices)

    @property
    def size_symbols(self) -> tuple[str, ...]:
        """Symbols appearing in bounds that are not loop indices."""
        seen: list[str] = []
        for lo, hi in self.bounds:
            for bound in (lo, hi):
                for name in _parse_bound(bound).variables:
                    if name not in self.indices and name not in seen:
                        seen.append(name)
        return tuple(seen)

    def check_sizes(self, sizes: Mapping[str, int]) -> None:
        """Raise ``ValueError`` unless ``sizes`` binds every size symbol
        and names nothing else but :data:`TILE_BINDINGS`: a stray name
        would change no result but every cache key it reaches."""
        symbols = self.size_symbols
        missing = [s for s in symbols if s not in sizes]
        if missing:
            raise ValueError(f"no binding for size symbol(s) {missing}")
        unknown = [
            name
            for name in sizes
            if name not in symbols and name not in TILE_BINDINGS
        ]
        if unknown:
            raise ValueError(
                f"unknown size binding(s) {unknown}; {self.name!r} takes "
                f"{list(symbols)} and the tile bindings {list(TILE_BINDINGS)}"
            )

    def bounds_fn(self, sizes: Mapping[str, int]) -> tuple[tuple[int, int], ...]:
        """Evaluate the loop bounds under a size binding."""
        return tuple(
            (_parse_bound(lo).evaluate(sizes), _parse_bound(hi).evaluate(sizes))
            for lo, hi in self.bounds
        )

    # -- serialisation -----------------------------------------------------

    def to_json(self) -> dict:
        """The canonical JSON document (validates back to an equal spec)."""
        doc = self.structural_json()
        doc["sizes"] = dict(self.sizes)
        doc["mapping"] = self.mapping
        doc["schedule"] = self.schedule
        if self.tile is not None:
            doc["tile"] = list(self.tile)
        if self.uov is not None:
            doc["uov"] = list(self.uov)
        if self.seed:
            doc["seed"] = self.seed
        if self.notes:
            doc["notes"] = self.notes
        return doc

    def structural_json(self) -> dict:
        """Only the program-identifying fields, canonically ordered."""
        return {
            "name": self.name,
            "indices": list(self.indices),
            "bounds": [[lo, hi] for lo, hi in self.bounds],
            "distances": [list(d) for d in self.distances],
            "combine": dict(self.combine),
            "inputs": dict(self.inputs),
            "output_axis": self.output_axis,
            "array": self.array,
            "costs": dict(self.costs),
        }

    @staticmethod
    def from_json(data: Mapping) -> "StencilSpec":
        return validate_spec(data)

    @staticmethod
    def load(path: Union[str, Path]) -> "StencilSpec":
        """Read and validate a spec JSON file."""
        text = Path(path).read_text()
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            diag = Diagnostics()
            diag.emit(
                "SPEC001",
                Severity.ERROR,
                str(path),
                f"not valid JSON: {exc}",
            )
            raise SpecError(diag, str(path)) from None
        return validate_spec(data)


# -- validation ---------------------------------------------------------------


def _parse_raw_bound(raw: Any) -> AffineExpr:
    """A bound as the spec wrote it, parsed; ``ValueError`` or
    ``TypeError`` if it is not affine."""
    if isinstance(raw, (str, int, AffineExpr)):
        return _parse_bound(raw)
    raise TypeError(
        f"expected an integer or an affine string, got "
        f"{type(raw).__name__} {raw!r}"
    )


def _canonical_bound(expr: AffineExpr) -> Union[int, str]:
    if expr.is_constant():
        return expr.const
    return str(expr)


def validate_spec(
    data: Mapping, diag: Optional[Diagnostics] = None
) -> StencilSpec:
    """Validate raw spec JSON/dict into a canonical :class:`StencilSpec`.

    Collects *all* problems into ``diag`` (structured findings, codes
    ``SPEC001``-``SPEC008``) and raises :class:`SpecError` if any are
    errors; on success returns the canonical spec.
    """
    diag = diag if diag is not None else Diagnostics()
    if not isinstance(data, Mapping):
        diag.emit(
            "SPEC001", Severity.ERROR, "<spec>",
            f"spec must be a JSON object, got {type(data).__name__}",
        )
        raise SpecError(diag, "<spec>")

    subject = data.get("name") if isinstance(data.get("name"), str) else "<spec>"

    def err(code: str, message: str, fix_hint: Optional[str] = None, **extra):
        diag.emit(code, Severity.ERROR, subject, message, fix_hint, **extra)

    known = {
        "name", "indices", "bounds", "distances", "combine", "inputs",
        "output_axis", "array", "costs",
    } | set(_DIRECTIVE_FIELDS)
    for key in data:
        if key not in known:
            diag.emit(
                "SPEC001", Severity.WARNING, subject,
                f"unknown field {key!r} ignored",
                f"known fields: {sorted(known)}",
            )

    # name / array ---------------------------------------------------------
    name = data.get("name")
    if not isinstance(name, str) or not name:
        err("SPEC001", "spec needs a non-empty string 'name'")
        name = "<spec>"
    array = data.get("array", "A")
    if not isinstance(array, str) or not array.isidentifier():
        err("SPEC001", f"array name {array!r} is not an identifier")
        array = "A"

    # indices --------------------------------------------------------------
    raw_indices = data.get("indices")
    indices: tuple[str, ...] = ()
    if (
        not isinstance(raw_indices, Sequence)
        or isinstance(raw_indices, str)
        or not raw_indices
        or not all(isinstance(ix, str) and ix.isidentifier() for ix in raw_indices)
    ):
        err(
            "SPEC001",
            "'indices' must be a non-empty list of identifiers "
            f"(got {raw_indices!r})",
        )
    elif len(set(raw_indices)) != len(raw_indices):
        err("SPEC001", f"duplicate loop indices in {list(raw_indices)!r}")
    else:
        indices = tuple(raw_indices)
    ndim = len(indices)

    # bounds ---------------------------------------------------------------
    raw_bounds = data.get("bounds")
    bounds: tuple[tuple[Union[int, str], Union[int, str]], ...] = ()
    if (
        not isinstance(raw_bounds, Sequence)
        or isinstance(raw_bounds, str)
        or (ndim and len(raw_bounds) != ndim)
    ):
        err(
            "SPEC001",
            f"'bounds' must be one [lo, hi] pair per index "
            f"({ndim} expected, got {raw_bounds!r})",
        )
    else:
        parsed: list[tuple[Union[int, str], Union[int, str]]] = []
        ok = True
        for axis, pair in enumerate(raw_bounds):
            if not isinstance(pair, Sequence) or isinstance(pair, str) or len(pair) != 2:
                err("SPEC001", f"bounds[{axis}] must be a [lo, hi] pair, got {pair!r}")
                ok = False
                continue
            canon = []
            for which, raw in zip(("lower", "upper"), pair):
                try:
                    expr = _parse_raw_bound(raw)
                except (ValueError, TypeError) as exc:
                    err(
                        "SPEC003",
                        f"{which} bound of {indices[axis] if axis < ndim else axis}"
                        f" is not affine: {exc}",
                        "bounds are sums of size symbols and integer "
                        "constants, e.g. \"L-1\" or \"2*n + 1\"",
                    )
                    ok = False
                    continue
                bad = [v for v in expr.variables if v in indices]
                if bad:
                    err(
                        "SPEC003",
                        f"{which} bound {raw!r} references loop "
                        f"index(es) {bad}; bounds must be rectangular",
                    )
                    ok = False
                    continue
                canon.append(_canonical_bound(expr))
            if len(canon) == 2:
                parsed.append((canon[0], canon[1]))
        if ok and len(parsed) == ndim:
            bounds = tuple(parsed)

    # distances ------------------------------------------------------------
    raw_distances = data.get("distances")
    distances: tuple[tuple[int, ...], ...] = ()
    if (
        not isinstance(raw_distances, Sequence)
        or isinstance(raw_distances, str)
        or not raw_distances
    ):
        err(
            "SPEC001",
            f"'distances' must be a non-empty list of integer vectors "
            f"(got {raw_distances!r})",
        )
    else:
        vecs: list[tuple[int, ...]] = []
        ok = True
        for k, vec in enumerate(raw_distances):
            if (
                not isinstance(vec, Sequence)
                or isinstance(vec, str)
                or not all(isinstance(c, int) for c in vec)
            ):
                err("SPEC002", f"distances[{k}] must be an integer vector, got {vec!r}")
                ok = False
                continue
            if ndim and len(vec) != ndim:
                err(
                    "SPEC002",
                    f"distances[{k}] has {len(vec)} components for "
                    f"{ndim} loop indices",
                    distance=list(vec),
                )
                ok = False
                continue
            first = next((c for c in vec if c != 0), 0)
            if first <= 0:
                err(
                    "SPEC002",
                    f"distances[{k}] = {list(vec)} is not lexicographically "
                    "positive (a source must precede its use)",
                    distance=list(vec),
                )
                ok = False
                continue
            vecs.append(tuple(vec))
        if ok:
            distances = tuple(vecs)

    # output_axis / costs / seed / notes ------------------------------------
    output_axis = data.get("output_axis", 0)
    if not isinstance(output_axis, int) or (ndim and not 0 <= output_axis < ndim):
        err(
            "SPEC001",
            f"output_axis {output_axis!r} out of range for {ndim} indices",
        )
        output_axis = 0

    raw_costs = data.get("costs", {})
    costs = {"flops": 0, "int_ops": 0, "branches": 0}
    if not isinstance(raw_costs, Mapping):
        err("SPEC001", f"'costs' must be an object, got {raw_costs!r}")
    else:
        for key, value in raw_costs.items():
            if key not in costs or not isinstance(value, int) or value < 0:
                err(
                    "SPEC001",
                    f"costs[{key!r}] must be a non-negative int "
                    "(flops/int_ops/branches)",
                )
            else:
                costs[key] = value

    seed = data.get("seed", 0)
    if not isinstance(seed, int):
        err("SPEC001", f"'seed' must be an int, got {seed!r}")
        seed = 0
    notes = data.get("notes", "")
    if not isinstance(notes, str):
        err("SPEC001", f"'notes' must be a string, got {notes!r}")
        notes = ""

    # sizes ----------------------------------------------------------------
    raw_sizes = data.get("sizes", {})
    sizes: dict[str, int] = {}
    if not isinstance(raw_sizes, Mapping):
        err("SPEC008", f"'sizes' must be an object of symbol -> int, got {raw_sizes!r}")
    else:
        for sym, value in raw_sizes.items():
            if not isinstance(value, int) or value <= 0:
                err(
                    "SPEC008",
                    f"size {sym!r} must bind a positive int, got {value!r}",
                )
            else:
                sizes[sym] = value

    # A provisional spec for derived queries (size symbols, bounds eval).
    provisional = StencilSpec(
        name=name,
        indices=indices,
        bounds=bounds,
        distances=distances or ((1,) * max(ndim, 1),),
        combine={"kind": "weighted-sum", "weights": [1.0]},
        inputs={"kind": "padded-line"},
        output_axis=output_axis,
        array=array,
        costs=costs,
        sizes=sizes,
        seed=seed,
        notes=notes,
    )

    if bounds:
        unbound = [s for s in provisional.size_symbols if s not in sizes]
        for sym in unbound:
            err(
                "SPEC004",
                f"size symbol {sym!r} appears in bounds but has no "
                "default binding in 'sizes'",
                f'add "sizes": {{"{sym}": <int>, ...}}',
                symbol=sym,
            )
        if not unbound and sizes:
            evaluated = provisional.bounds_fn(sizes)
            for axis, (lo, hi) in enumerate(evaluated):
                if hi < lo:
                    err(
                        "SPEC008",
                        f"loop {indices[axis]!r} is empty under the default "
                        f"sizes ({lo}..{hi})",
                    )

    # combine --------------------------------------------------------------
    raw_combine = data.get("combine")
    combine: Mapping[str, Any] = {}
    if distances:
        try:
            combine = compile_combine(raw_combine, len(distances)).json
        except (ValueError, KeyError) as exc:
            message = exc.args[0] if exc.args else str(exc)
            err("SPEC005", str(message))
    elif raw_combine is None:
        err("SPEC001", "spec needs a 'combine' object")

    # inputs ---------------------------------------------------------------
    raw_inputs = data.get("inputs")
    inputs: Mapping[str, Any] = {}
    if bounds and indices:
        try:
            inputs = build_input_rule(
                raw_inputs, provisional.bounds_fn, ndim
            ).json
        except (ValueError, KeyError) as exc:
            message = exc.args[0] if exc.args else str(exc)
            err("SPEC006", str(message))
    elif raw_inputs is None:
        err("SPEC001", "spec needs an 'inputs' object")

    # directives: mapping / schedule / tile / uov ---------------------------
    mapping = data.get("mapping", "ov")
    schedule = data.get("schedule", "lex")
    from repro.mapping import MAPPINGS
    from repro.schedule import SCHEDULES

    if not isinstance(mapping, str) or mapping not in MAPPINGS:
        suggestion = None
        if isinstance(mapping, str):
            import difflib

            close = difflib.get_close_matches(mapping, MAPPINGS.names(), n=1)
            suggestion = f"did you mean {close[0]!r}?" if close else None
        err(
            "SPEC007",
            f"unknown mapping {mapping!r}; one of {sorted(MAPPINGS.names())}",
            suggestion,
        )
        mapping = "ov"
    if not isinstance(schedule, str) or schedule not in SCHEDULES:
        suggestion = None
        if isinstance(schedule, str):
            import difflib

            close = difflib.get_close_matches(schedule, SCHEDULES.names(), n=1)
            suggestion = f"did you mean {close[0]!r}?" if close else None
        err(
            "SPEC007",
            f"unknown schedule {schedule!r}; one of {sorted(SCHEDULES.names())}",
            suggestion,
        )
        schedule = "lex"

    tile = data.get("tile")
    if tile is not None:
        if (
            not isinstance(tile, Sequence)
            or isinstance(tile, str)
            or (ndim and len(tile) != ndim)
            or not all(isinstance(t, int) and t > 0 for t in tile)
        ):
            err(
                "SPEC001",
                f"'tile' must be {ndim} positive ints, got {tile!r}",
            )
            tile = None
        else:
            tile = tuple(tile)

    uov = data.get("uov")
    if uov is not None:
        if (
            not isinstance(uov, Sequence)
            or isinstance(uov, str)
            or (ndim and len(uov) != ndim)
            or not all(isinstance(c, int) for c in uov)
        ):
            err(
                "SPEC002",
                f"'uov' override must be a {ndim}-component integer "
                f"vector, got {uov!r}",
            )
            uov = None
        else:
            uov = tuple(uov)

    if diag.exit_code(Severity.ERROR):
        raise SpecError(diag, subject)

    return replace(
        provisional,
        distances=distances,
        combine=combine,
        inputs=inputs,
        mapping=mapping,
        schedule=schedule,
        tile=tile,
        uov=uov,
    )


# -- builder ------------------------------------------------------------------


class SpecBuilder:
    """A small fluent builder for :class:`StencilSpec`.

    ::

        spec = (
            SpecBuilder("jacobi3")
            .loop("t", 1, "T")
            .loop("x", 0, "L-1")
            .distances((1, 1), (1, 0), (1, -1))
            .weighted_sum(0.25, 0.5, 0.25)
            .inputs("padded-line", pad=1, pad_value=0.0)
            .costs(flops=5)
            .sizes(T=5, L=9)
            .build()
        )

    ``build()`` runs full validation, so a builder mistake produces the
    same structured diagnostics a JSON spec would.
    """

    def __init__(self, name: str):
        self._doc: dict[str, Any] = {
            "name": name,
            "indices": [],
            "bounds": [],
        }

    def loop(self, index: str, lo: Union[int, str], hi: Union[int, str]) -> "SpecBuilder":
        """Append one loop level (outermost first)."""
        self._doc["indices"].append(index)
        self._doc["bounds"].append([lo, hi])
        return self

    def distances(self, *vectors: Sequence[int]) -> "SpecBuilder":
        self._doc["distances"] = [list(v) for v in vectors]
        return self

    def weighted_sum(self, *weights: float) -> "SpecBuilder":
        self._doc["combine"] = {"kind": "weighted-sum", "weights": list(weights)}
        return self

    def expr(self, expression: str) -> "SpecBuilder":
        self._doc["combine"] = {"kind": "expr", "expr": expression}
        return self

    def hook(self, name: str) -> "SpecBuilder":
        self._doc["combine"] = {"kind": "hook", "name": name}
        return self

    def inputs(self, kind: str, **params: Any) -> "SpecBuilder":
        self._doc["inputs"] = {"kind": kind, **params}
        return self

    def costs(self, flops: int = 0, int_ops: int = 0, branches: int = 0) -> "SpecBuilder":
        self._doc["costs"] = {
            "flops": flops, "int_ops": int_ops, "branches": branches,
        }
        return self

    def output_axis(self, axis: int) -> "SpecBuilder":
        self._doc["output_axis"] = axis
        return self

    def array(self, name: str) -> "SpecBuilder":
        self._doc["array"] = name
        return self

    def sizes(self, **bindings: int) -> "SpecBuilder":
        self._doc["sizes"] = dict(bindings)
        return self

    def mapping(self, name: str) -> "SpecBuilder":
        self._doc["mapping"] = name
        return self

    def schedule(self, name: str) -> "SpecBuilder":
        self._doc["schedule"] = name
        return self

    def tile(self, *tile_sizes: int) -> "SpecBuilder":
        self._doc["tile"] = list(tile_sizes)
        return self

    def uov(self, *components: int) -> "SpecBuilder":
        self._doc["uov"] = list(components)
        return self

    def seed(self, seed: int) -> "SpecBuilder":
        self._doc["seed"] = seed
        return self

    def notes(self, text: str) -> "SpecBuilder":
        self._doc["notes"] = text
        return self

    def to_json(self) -> dict:
        return json.loads(json.dumps(self._doc))

    def build(self, diag: Optional[Diagnostics] = None) -> StencilSpec:
        return validate_spec(self._doc, diag)
