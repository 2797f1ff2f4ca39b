"""The typed stages of the compilation pipeline.

Stage order mirrors the paper's flow (Sections 2-5)::

    parse -> dependence -> uov-search -> mapping-select
          -> schedule-select -> lint -> execute -> codegen

Each :class:`Stage` declares the slice of the spec it reads
(``payload`` — hashed into its chained cache key) and how to produce its
artifact from the live :class:`~repro.pipeline.driver.PipelineContext`
(``run`` — executed only on a cache miss).  Keeping payloads minimal is
what makes invalidation surgical: the ``schedule`` directive appears only
from ``schedule-select`` onward, so editing it leaves the parse /
dependence / uov-search / mapping-select prefix warm.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional

from repro.resilience.faults import maybe_fault

from repro.pipeline.artifacts import (
    Artifact,
    CodegenArtifact,
    DependenceArtifact,
    ExecuteArtifact,
    LintArtifact,
    MappingArtifact,
    ParseArtifact,
    ScheduleArtifact,
    UOVArtifact,
)

__all__ = ["PIPELINE_STAGES", "Stage", "StageError"]


class StageError(RuntimeError):
    """A stage could not produce its artifact (bad OV override, illegal
    schedule, execution mismatch); carries the stage name."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"[{stage}] {message}")


@dataclass(frozen=True)
class Stage:
    """One pipeline pass: what it reads (for caching) and what it does."""

    name: str
    artifact_cls: type
    payload: Callable[["PipelineContext"], dict]  # noqa: F821
    run: Callable[["PipelineContext"], Artifact]  # noqa: F821


# -- stage implementations ----------------------------------------------------


def _parse_payload(ctx) -> dict:
    return {"structural": ctx.spec.structural_json()}


def _parse_run(ctx) -> ParseArtifact:
    return ParseArtifact(
        spec=ctx.spec.to_json(),
        size_symbols=list(ctx.spec.size_symbols),
        ndim=ctx.spec.ndim,
    )


def _dependence_payload(ctx) -> dict:
    return {}


def _dependence_run(ctx) -> DependenceArtifact:
    from repro.analysis.legality import check_uov_applicability

    # Unsized: the stage key does not cover the sizes.  The sized region
    # check runs in the lint ``applicability`` pass, whose key does.
    report = check_uov_applicability(ctx.code.program)
    stencil = ctx.code.stencil
    return DependenceArtifact(
        distances=[list(v) for v in stencil.vectors],
        ok=bool(report.ok),
        problems=list(report.problems),
        initial_uov=list(stencil.initial_uov),
    )


def _uov_payload(ctx) -> dict:
    from repro.analysis import SYMCERT_ENGINE_VERSION

    # The budget shapes the artifact (a tighter budget may yield a
    # different, degraded UOV), so it must be part of the cache key.
    # The symbolic-prover fingerprint is part of the key too: the cached
    # artifact carries the size-parametric proof object, and a changed
    # prover must invalidate stale proofs rather than trust them.
    budget = ctx.search_budget
    return {
        "uov": list(ctx.spec.uov) if ctx.spec.uov is not None else None,
        "budget": budget.to_json() if budget is not None else None,
        "symcert": SYMCERT_ENGINE_VERSION,
    }


def _symbolic_certificate(ctx, ov) -> Optional[dict]:
    """Attach the size-parametric proof (or its degradation record).

    The enumerative gate has already vouched for ``ov`` at the compile
    sizes when this runs, so a symbolic *rejection* here is a
    symbolic/enumerative disagreement — a decision-procedure bug the
    compile must not paper over.  Everything else (opaque semantics,
    irregular bounds, engine budget) degrades to a structured record:
    the compile stays correct, merely without a parametric proof.
    """
    from repro.analysis.symcert import symbolic_certify_code
    from repro.util.fm import FMBudgetExceeded

    try:
        outcome = symbolic_certify_code(ctx.code, ov, sizes=ctx.sizes)
    except (FMBudgetExceeded, ValueError) as exc:
        return {
            "verdict": "degraded",
            "reason": "symcert-error",
            "detail": str(exc),
        }
    if outcome.verdict == "universal":
        return outcome.certificate.to_json()
    if outcome.verdict == "degraded":
        return {"verdict": "degraded", **outcome.degradation.to_json()}
    raise StageError(
        "uov-search",
        f"symbolic certifier rejected {list(ov)} after the enumerative "
        f"certifier accepted it — symbolic/enumerative disagreement "
        f"(SYM002)",
    )


def _uov_run(ctx) -> UOVArtifact:
    from repro.analysis.certify import UOVCounterexample, certify
    from repro.core.search import find_uov_with_fallback

    maybe_fault("pipeline.stage.uov-search", label=ctx.spec.name)
    if ctx.spec.uov is not None:
        ov = tuple(ctx.spec.uov)
        verdict = certify(ov, ctx.code.stencil, counterexample_schedule=False)
        if isinstance(verdict, UOVCounterexample):
            raise StageError(
                "uov-search",
                f"uov override {list(ov)} is not universal "
                f"(ov - {list(verdict.failing_vector)} leaves the stencil "
                f"cone); the initial UOV "
                f"{list(ctx.code.stencil.initial_uov)} is always safe",
            )
        return UOVArtifact(
            ov=list(ov),
            source="override",
            optimal=False,
            storage=None,
            nodes_visited=0,
            certificate=_symbolic_certificate(ctx, ov),
        )
    result = find_uov_with_fallback(
        ctx.code.stencil, budget=ctx.search_budget
    )
    degradation = result.degradation
    return UOVArtifact(
        ov=list(result.ov),
        source=(
            "fallback"
            if degradation is not None and degradation.reason == "crash"
            else "search"
        ),
        optimal=bool(result.optimal),
        storage=int(result.storage) if result.storage is not None else None,
        nodes_visited=int(result.nodes_visited),
        degradation=degradation.to_json() if degradation is not None else None,
        certificate=_symbolic_certificate(ctx, tuple(result.ov)),
    )


def _mapping_payload(ctx) -> dict:
    return {"mapping": ctx.spec.mapping, "sizes": dict(ctx.sizes)}


def _mapping_run(ctx) -> MappingArtifact:
    # The first stage keyed by the sizes: an empty box fails here.
    ctx.code.program.loop.concrete_bounds(ctx.sizes)
    mapping = ctx.subject.mapping(ctx.sizes)
    natural = ctx.family["natural"].mapping(ctx.sizes)
    return MappingArtifact(
        name=ctx.spec.mapping,
        ov=list(ctx.ov) if ctx.spec.mapping.startswith("ov") else None,
        size=int(mapping.size),
        natural_size=int(natural.size),
    )


def _schedule_payload(ctx) -> dict:
    return {
        "schedule": ctx.spec.schedule,
        "tile": list(ctx.spec.tile) if ctx.spec.tile is not None else None,
        "sizes": dict(ctx.sizes),
    }


def _count_batches(schedule, bounds, stencil):
    """Number of wavefront batches, or None when the schedule admits no
    batch decomposition (the interpreter then runs point-at-a-time)."""
    runs = schedule.batches(bounds, stencil)
    if runs is None:
        return None
    return sum(1 for _ in runs)


def _schedule_run(ctx) -> ScheduleArtifact:
    schedule = ctx.subject.schedule(ctx.sizes)
    bounds = ctx.bounds
    legal = bool(schedule.is_legal_for(ctx.code.stencil, bounds))
    if not legal:
        raise StageError(
            "schedule-select",
            f"schedule {ctx.spec.schedule!r} violates a value dependence "
            f"of {[list(v) for v in ctx.code.stencil.vectors]}",
        )
    tile = getattr(schedule, "tile_sizes", None)
    return ScheduleArtifact(
        name=ctx.spec.schedule,
        legal=legal,
        tile=list(tile) if tile is not None else None,
        batches=_count_batches(schedule, bounds, ctx.code.stencil),
    )


def _lint_payload(ctx) -> dict:
    return {
        "sizes": dict(ctx.sizes),
        "seed": ctx.seed,
        "fuzz": ctx.lint_fuzz,
    }


def _lint_run(ctx) -> LintArtifact:
    from repro.analysis.diag import Diagnostics, Severity
    from repro.analysis.passes import build_target, lint_target

    versions = dict(ctx.family)
    versions["spec"] = ctx.subject
    target = build_target(
        ctx.spec.name, versions, ctx.sizes, fuzz=ctx.lint_fuzz, seed=ctx.seed
    )
    diag = lint_target(target, diag=Diagnostics())
    uov_artifact = ctx.artifacts.get("uov-search")
    if uov_artifact is not None and uov_artifact.degradation:
        # Surface graceful degradation as a structured lint finding:
        # the compile is *correct* (the fallback UOV is certified) but
        # possibly suboptimal, which the user should know about.
        d = uov_artifact.degradation
        diag.emit(
            "RES001",
            Severity.WARNING,
            f"{ctx.spec.name}/uov-search",
            f"UOV search degraded ({d.get('reason')}): using "
            f"{list(uov_artifact.ov)} after {d.get('nodes_explored', 0)} "
            f"nodes ({d.get('fallback', 'incumbent')} fallback)",
            fix_hint=(
                "raise the search budget (--search-max-nodes / "
                "--search-wall-ms) or pin 'uov' in the spec"
            ),
            **{k: v for k, v in d.items() if k != "data"},
        )
    worst = diag.max_severity()
    return LintArtifact(
        report=diag.to_json(),
        max_severity=str(worst) if worst is not None else None,
    )


def _execute_payload(ctx) -> dict:
    # The engine is part of the key: the artifact records which engine
    # verified the outputs (and any degradation), so an engine switch
    # must rerun the stage rather than reuse another engine's record.
    return {"sizes": dict(ctx.sizes), "seed": ctx.seed, "engine": ctx.engine}


def _execute_run(ctx) -> ExecuteArtifact:
    import numpy as np

    from repro.execution.engines import run_engine_batch

    # One batch: the native engine builds both kernels in one object.
    reference = ctx.family["natural"]
    ref_result, subject_result = run_engine_batch(
        ctx.engine, [reference, ctx.subject], ctx.sizes, seed=ctx.seed
    )
    outputs = ref_result.output_values()
    subject_outputs = subject_result.output_values()
    if subject_outputs.shape != outputs.shape:
        raise StageError(
            "execute",
            f"spec version produced {subject_outputs.shape} outputs, "
            f"natural produced {outputs.shape}",
        )
    mismatch = np.nonzero(subject_outputs != outputs)[0]
    if mismatch.size:
        k = int(mismatch[0])
        raise StageError(
            "execute",
            f"spec version disagrees with natural at output {k}: "
            f"{subject_outputs[k]!r} != {outputs[k]!r} "
            f"(engine {ctx.engine}, sizes {dict(ctx.sizes)})",
        )
    degradation = subject_result.degradation
    checksum = hashlib.sha256(outputs.tobytes()).hexdigest()[:16]
    return ExecuteArtifact(
        verified=True,
        n_outputs=int(outputs.size),
        outputs_sha256=checksum,
        subject_storage=int(ctx.subject.mapping(ctx.sizes).size),
        reference_storage=int(reference.mapping(ctx.sizes).size),
        engine=ctx.engine,
        engine_used=subject_result.engine_used,
        degradation=degradation.to_json() if degradation is not None else None,
    )


def _codegen_payload(ctx) -> dict:
    return {"sizes": dict(ctx.sizes), "engine": ctx.engine}


def _codegen_run(ctx) -> CodegenArtifact:
    from repro.codegen.c_gen import generate_c
    from repro.codegen.python_gen import generate_python

    lang = "c" if ctx.engine == "native" else "python"
    generate = generate_c if lang == "c" else generate_python
    try:
        source = generate(ctx.subject, ctx.sizes)
    except (NotImplementedError, ValueError) as exc:
        return CodegenArtifact(
            supported=False, source=None, reason=str(exc), lang=lang
        )
    return CodegenArtifact(supported=True, source=source, lang=lang)


#: The canonical stage sequence, in execution order.
PIPELINE_STAGES: tuple[Stage, ...] = (
    Stage("parse", ParseArtifact, _parse_payload, _parse_run),
    Stage("dependence", DependenceArtifact, _dependence_payload, _dependence_run),
    Stage("uov-search", UOVArtifact, _uov_payload, _uov_run),
    Stage("mapping-select", MappingArtifact, _mapping_payload, _mapping_run),
    Stage("schedule-select", ScheduleArtifact, _schedule_payload, _schedule_run),
    Stage("lint", LintArtifact, _lint_payload, _lint_run),
    Stage("execute", ExecuteArtifact, _execute_payload, _execute_run),
    Stage("codegen", CodegenArtifact, _codegen_payload, _codegen_run),
)
