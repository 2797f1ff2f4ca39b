"""Request/response envelopes for the serve daemon (DESIGN.md §17).

Every response body is one JSON object.  Success envelopes are::

    {"ok": true, "coalesced": false, "result": {...}, "degradation": null}

and error envelopes are::

    {"ok": false, "error": {"code": "...", "message": "...",
                            "retry_after_s": 1.5, "detail": {...}}}

``code`` is the machine-readable class the chaos suite and clients
dispatch on (:data:`ERROR_CODES`); ``retry_after_s`` mirrors the HTTP
``Retry-After`` header on 429/503 responses so JSON-only clients never
have to read headers.  ``degradation`` carries the same structured
:class:`~repro.resilience.budget.Degradation` JSON the pipeline uses —
a response is either fully correct or *truthfully* degraded, never
silently wrong.

Request identity is a content hash (:func:`compile_request_key` /
:func:`experiment_request_key`) over the canonicalised payload: two
byte-different bodies that mean the same work coalesce onto one
pipeline run, and the hash doubles as the circuit-breaker quarantine
key for poisoned specs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from repro.store.fingerprint import content_hash

__all__ = [
    "RequestError",
    "ServeError",
    "compile_request_key",
    "error_body",
    "experiment_request_key",
    "normalize_compile_request",
    "normalize_experiment_request",
    "success_body",
]

#: Machine-readable error classes (the JSON ``error.code`` values).
ERROR_CODES = (
    "bad-request",      # malformed JSON / missing fields / bad spec
    "not-found",        # unknown route or artifact key
    "overloaded",       # admission control shed the request (429)
    "spec-quarantined", # circuit breaker open for this spec hash (422)
    "worker-failed",    # the job exhausted its crash/timeout retries (500)
    "draining",         # daemon is shutting down, not accepting work (503)
)

#: Engines a request may ask for (mirrors execution.engines.ENGINES).
ENGINES = ("interpreter", "vectorized", "native")


class RequestError(ValueError):
    """A request that can never succeed: reported as a 400, not retried."""


@dataclass
class ServeError:
    """Structured error payload for one failed request."""

    code: str
    message: str
    retry_after_s: Optional[float] = None
    detail: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        body: dict[str, Any] = {"code": self.code, "message": self.message}
        if self.retry_after_s is not None:
            body["retry_after_s"] = round(self.retry_after_s, 3)
        if self.detail:
            body["detail"] = dict(self.detail)
        return body


def success_body(
    result: Any,
    coalesced: bool = False,
    degradation: Optional[Mapping] = None,
    cached: Optional[bool] = None,
) -> dict:
    body = {
        "ok": True,
        "coalesced": bool(coalesced),
        "result": result,
        "degradation": dict(degradation) if degradation else None,
    }
    if cached is not None:
        body["cached"] = bool(cached)
    return body


def error_body(error: ServeError) -> dict:
    return {"ok": False, "error": error.to_json()}


def _require_mapping(data: Any, what: str) -> dict:
    if not isinstance(data, Mapping):
        raise RequestError(f"{what} must be a JSON object, got {type(data).__name__}")
    return dict(data)


def _sizes_of(data: Mapping) -> Optional[dict]:
    sizes = data.get("sizes")
    if sizes is None:
        return None
    sizes = _require_mapping(sizes, "'sizes'")
    out = {}
    for name, value in sizes.items():
        if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
            raise RequestError(f"size {name!r} must be a positive integer")
        out[str(name)] = value
    return out


def _check_sizes(spec, sizes: Mapping) -> None:
    """:meth:`~repro.frontend.spec.StencilSpec.check_sizes`, as a 400."""
    try:
        spec.check_sizes(sizes)
    except ValueError as exc:
        raise RequestError(str(exc)) from exc


def normalize_compile_request(data: Any) -> dict:
    """Validate and canonicalise a ``POST /compile`` body.

    Accepts ``{"spec": {...stencil spec json...}, "sizes": {...},
    "seed": int, "engine": str, "lint": bool, "execute": bool,
    "codegen": bool}``; everything but ``spec`` is optional.  The spec
    itself is validated by the frontend (structured SPEC0xx diagnostics
    become the 400 message) so a poisoned spec is rejected at the door,
    before it can touch a worker.
    """
    from repro.frontend.spec import SpecError, validate_spec

    data = _require_mapping(data, "request body")
    if "spec" not in data:
        raise RequestError("request body needs a 'spec' object")
    try:
        spec = validate_spec(_require_mapping(data["spec"], "'spec'"))
    except SpecError as exc:
        raise RequestError(f"invalid spec: {exc}") from exc
    engine = data.get("engine", "interpreter")
    if engine not in ENGINES:
        raise RequestError(f"unknown engine {engine!r}; one of {list(ENGINES)}")
    seed = data.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        raise RequestError("'seed' must be an integer")
    request = {
        "kind": "compile",
        "spec": spec.to_json(),
        "sizes": _sizes_of(data),
        "seed": seed,
        "engine": engine,
        "lint": bool(data.get("lint", False)),
        "execute": bool(data.get("execute", True)),
        "codegen": bool(data.get("codegen", False)),
    }
    sizes = request["sizes"]
    _check_sizes(spec, sizes if sizes is not None else spec.sizes)
    return request


def normalize_experiment_request(data: Any) -> dict:
    """Validate and canonicalise a ``POST /experiment`` body.

    ``{"code": name, "version": key, "sizes": {...}, "machine": name,
    "passes": int, "seed": int}`` — one simulation point, exactly the
    harness's :class:`~repro.experiments.harness.SimTask` shape.  A point
    that can never simulate (``passes`` below 1, a size symbol of the
    code left unbound) or names a size the code does not take is refused
    here, as ``/compile`` refuses such sizes, instead of failing in a
    worker or splitting the cache.
    """
    from repro.codes import CODES, get_spec, get_versions
    from repro.machine.configs import MACHINES

    data = _require_mapping(data, "request body")
    code = data.get("code")
    if not isinstance(code, str) or code not in CODES:
        raise RequestError(
            f"unknown code {code!r}; one of {sorted(CODES.names())}"
        )
    version = data.get("version")
    if not isinstance(version, str) or not version:
        raise RequestError("request body needs a 'version' string")
    known = get_versions(code)
    if version not in known:
        raise RequestError(
            f"unknown version {version!r} of {code!r}; one of {sorted(known)}"
        )
    sizes = _sizes_of(data)
    if not sizes:
        raise RequestError("request body needs a non-empty 'sizes' object")
    machine = data.get("machine", MACHINES[0].name)
    if machine not in {m.name for m in MACHINES}:
        raise RequestError(
            f"unknown machine {machine!r}; one of "
            f"{sorted(m.name for m in MACHINES)}"
        )
    passes = data.get("passes", 1)
    seed = data.get("seed", 0)
    for name, value in (("passes", passes), ("seed", seed)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise RequestError(f"'{name}' must be an integer")
    if passes < 1:
        raise RequestError("'passes' must be at least 1")
    _check_sizes(get_spec(code), sizes)
    return {
        "kind": "experiment",
        "code": code,
        "version": version,
        "sizes": sizes,
        "machine": machine,
        "passes": passes,
        "seed": seed,
    }


def _request_key(request: Mapping, kind: str) -> str:
    # ``label`` is display only (the daemon derives it from this key).
    return content_hash(
        {k: request[k] for k in request if k not in ("kind", "label")}
        | {"kind": kind}
    )


def compile_request_key(request: Mapping) -> str:
    """Content hash identifying one compile's *work* (the coalescing and
    quarantine key).  Folds in everything that changes the pipeline's
    output — spec, sizes, seed, engine, stage selection."""
    return _request_key(request, "compile")


def experiment_request_key(request: Mapping) -> str:
    return _request_key(request, "experiment")
