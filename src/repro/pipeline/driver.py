"""The pipeline driver: one path from spec to result.

:func:`compile_spec` pushes a validated :class:`StencilSpec` through the
typed stage sequence with chained content-hash caching, per-stage obs
spans/metrics, and lazy construction of live objects.  ``repro compile``,
``repro run``, ``repro lint`` (for spec files), and the experiment
harness all sit on top of this function — there is no other
search→mapping→schedule→execute path.

Laziness matters for honest caching: the :class:`PipelineContext` builds
the synthesized ``Code``, the version family, and the subject version
only on first access, and only stage ``run`` callables access them — so a
fully cached compile deserialises artifacts without synthesizing,
searching, or executing anything (the cache test asserts 0 stage runs).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional, Sequence

from repro import obs
from repro.frontend.spec import StencilSpec
from repro.frontend.synth import make_versions, spec_version, synthesize_code
from repro.pipeline.artifacts import Artifact
from repro.pipeline.cache import ArtifactCache
from repro.pipeline.stages import PIPELINE_STAGES, Stage, StageError
from repro.resilience.budget import Budget
from repro.store.fingerprint import content_hash, engine_fingerprint
from repro.store.provenance import Provenance

__all__ = ["CompileResult", "PipelineContext", "StageRecord", "compile_spec"]


class PipelineContext:
    """Live state shared by the stages of one compile.

    Everything heavyweight is a ``cached_property`` so that cache hits
    never trigger construction; ``ov`` comes from the ``uov-search``
    artifact (fresh or deserialised), keeping the subject version
    consistent with what the cache recorded.
    """

    def __init__(
        self,
        spec: StencilSpec,
        sizes: Mapping[str, int],
        seed: int,
        lint_fuzz: int = 0,
        search_budget: Optional[Budget] = None,
        engine: str = "interpreter",
    ):
        self.spec = spec
        self.sizes = dict(sizes)
        self.seed = seed
        self.lint_fuzz = lint_fuzz
        self.search_budget = search_budget
        self.engine = engine
        self.artifacts: dict[str, Artifact] = {}

    @cached_property
    def code(self):
        return synthesize_code(self.spec)

    @cached_property
    def bounds(self) -> tuple[tuple[int, int], ...]:
        return self.spec.bounds_fn(self.sizes)

    @property
    def ov(self) -> tuple[int, ...]:
        artifact = self.artifacts.get("uov-search")
        if artifact is None:
            raise RuntimeError("uov-search artifact not available yet")
        return tuple(artifact.ov)

    @cached_property
    def family(self):
        return make_versions(self.code, ov=self.ov)

    @cached_property
    def subject(self):
        return spec_version(self.code, ov=self.ov)


@dataclass(frozen=True)
class StageRecord:
    """What happened to one stage during a compile."""

    name: str
    key: str
    cached: bool
    wall_s: float
    artifact: Artifact


@dataclass
class CompileResult:
    """Everything one ``compile_spec`` produced."""

    spec: StencilSpec
    sizes: dict
    seed: int
    records: list[StageRecord] = field(default_factory=list)

    def artifact(self, name: str) -> Artifact:
        for record in self.records:
            if record.name == name:
                return record.artifact
        raise KeyError(f"no stage {name!r} in this compile")

    @property
    def stages_run(self) -> list[str]:
        return [r.name for r in self.records if not r.cached]

    @property
    def cache_hits(self) -> list[str]:
        return [r.name for r in self.records if r.cached]

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "sizes": dict(self.sizes),
            "seed": self.seed,
            "stages": [
                {
                    "name": r.name,
                    "key": r.key,
                    "cached": r.cached,
                    "wall_s": round(r.wall_s, 6),
                    "artifact": r.artifact.to_json(),
                }
                for r in self.records
            ],
        }


def _select_stages(
    lint: bool, execute: bool, codegen: bool
) -> tuple[Stage, ...]:
    skip = set()
    if not lint:
        skip.add("lint")
    if not execute:
        skip.add("execute")
    if not codegen:
        skip.add("codegen")
    return tuple(s for s in PIPELINE_STAGES if s.name not in skip)


def compile_spec(
    spec: StencilSpec,
    sizes: Optional[Mapping[str, int]] = None,
    seed: Optional[int] = None,
    lint: bool = False,
    lint_fuzz: int = 0,
    execute: bool = True,
    codegen: bool = False,
    cache: Optional[ArtifactCache] = None,
    search_budget: Optional[Budget] = None,
    engine: str = "interpreter",
) -> CompileResult:
    """Run the pipeline over one validated spec.

    ``sizes``/``seed`` default to the spec's own directives.  ``lint``
    and ``codegen`` are opt-in stages; ``execute`` (verify the directed
    version bit-for-bit against the natural/lexicographic reference) is
    on by default.  ``search_budget`` bounds the ``uov-search`` stage
    (wall time / nodes / memory); exhaustion degrades gracefully to the
    best incumbent — at worst the certified trivial ``ov0`` — and the
    artifact records the degradation.  ``engine`` picks the execution
    engine for the execute stage (``interpreter`` / ``vectorized`` /
    ``native``) and switches codegen to C for ``native``; an unavailable
    native tier degrades to the vectorized engine and the execute
    artifact records it.  Raises
    :class:`~repro.pipeline.stages.StageError` when a stage cannot
    produce its artifact.
    """
    from repro.execution.engines import ENGINES

    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; one of {list(ENGINES)}")
    sizes = dict(sizes) if sizes is not None else dict(spec.sizes)
    spec.check_sizes(sizes)
    seed = seed if seed is not None else spec.seed
    cache = cache if cache is not None else ArtifactCache()
    ctx = PipelineContext(
        spec,
        sizes,
        seed,
        lint_fuzz=lint_fuzz,
        search_budget=search_budget,
        engine=engine,
    )
    result = CompileResult(spec=spec, sizes=sizes, seed=seed)
    metrics = obs.get_metrics()

    parent_key: Optional[str] = None
    with obs.span("pipeline.compile", spec=spec.name, sizes=str(sizes)):
        for stage in _select_stages(lint, execute, codegen):
            key = cache.key(stage.name, parent_key, stage.payload(ctx))
            t0 = time.perf_counter()
            cached_json = cache.load(stage.name, key)
            if cached_json is not None:
                artifact = stage.artifact_cls.from_json(cached_json)
                cached = True
                metrics.counter("pipeline.stage.cache_hits").inc()
                metrics.counter(f"pipeline.stage.cache_hits.{stage.name}").inc()
            else:
                with obs.span("pipeline.stage", stage=stage.name, spec=spec.name):
                    artifact = stage.run(ctx)
                run_wall = time.perf_counter() - t0
                cache.store(
                    stage.name,
                    key,
                    artifact.to_json(),
                    provenance=Provenance.now(
                        op=stage.name,
                        inputs={
                            "parent": parent_key or "",
                            "payload": content_hash(stage.payload(ctx)),
                        },
                        engine=engine_fingerprint(),
                        spec=content_hash(spec.to_json()),
                        wall_s=round(run_wall, 6),
                        extra={"spec_name": spec.name, "sizes": dict(sizes)},
                    ),
                )
                cached = False
                metrics.counter("pipeline.stage.runs").inc()
                metrics.counter(f"pipeline.stage.runs.{stage.name}").inc()
            wall = time.perf_counter() - t0
            metrics.histogram(f"pipeline.stage.wall_s.{stage.name}").observe(wall)
            ctx.artifacts[stage.name] = artifact
            result.records.append(
                StageRecord(stage.name, key, cached, wall, artifact)
            )
            parent_key = key
    _ledger_compile(result, engine)
    return result


def _ledger_compile(result: CompileResult, engine: str) -> None:
    """Durable run-ledger entries for one compile (DESIGN.md §14).

    One ``compile`` entry per ``compile_spec`` call — spec name, chain
    key (the content hash of everything that fed the last stage), stage
    list, cache hits, total wall — plus one ``execute`` entry per
    execute stage with the engine that *actually* ran.  No-op unless a
    ledger is open (``--ledger`` / ``REPRO_LEDGER``).
    """
    if obs.get_ledger() is None:
        return
    total = sum(r.wall_s for r in result.records)
    obs.ledger_record(
        "compile",
        spec=result.spec.name,
        sizes=result.sizes,
        seed=result.seed,
        key=result.records[-1].key if result.records else None,
        stages=[r.name for r in result.records],
        cache_hits=len(result.cache_hits),
        cached=bool(result.records) and not result.stages_run,
        wall_s=round(total, 6),
    )
    for r in result.records:
        if r.name != "execute":
            continue
        a = r.artifact
        obs.ledger_record(
            "execute",
            code=result.spec.name,
            version=result.spec.mapping or "spec",
            engine=getattr(a, "engine_used", engine),
            requested=engine,
            cached=r.cached,
            wall_s=round(r.wall_s, 6),
            outputs_sha256=getattr(a, "outputs_sha256", None),
        )
