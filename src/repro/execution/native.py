"""Native compiled execution: generated C → shared object → ctypes.

The third and fastest engine.  :func:`execute_native` computes exactly
what the scalar interpreter and the vectorized engine compute — bit for
bit, same storage end-state, same :class:`ExecutionResult` — by
compiling the version's generated C (:mod:`repro.codegen.c_gen`) with
the discovered toolchain (:mod:`repro.codegen.build`) and running the
loop nest at machine speed.

Bit-identity holds because the generated C replays the interpreter's
arithmetic exactly: combines are inlined left-associated with hex-float
constants, mapping ``%`` is emitted sign-safe, and the build always
passes ``-ffp-contract=off`` so the compiler cannot fuse multiply-adds.
The differential suite in ``tests/native/`` asserts equality against
both engines for every code × version × odd-size combination.

Boundary inputs cross the FFI once, not per point: before the call the
engine precomputes every out-of-ISG producer value into a row-major
*halo buffer* over the extended box (:mod:`repro.execution.gather`, one
halo for the code generator and both fast engines), so the compiled
loop reads two flat ``double`` arrays and touches Python only for
:class:`SemanticsHook` combines (psm's table lookup), which keep a
ctypes callback.

One compiler run serves a whole batch: :func:`native_runners` lowers
every version of the batch into one translation unit, with one entry
point per kernel (:func:`~repro.codegen.c_gen.kernel_symbols`), and
loads the object once.  :func:`execute_native` is a batch of one, whose
object is exactly the ``generate_c`` artifact.

When the tier is unavailable — no compiler on PATH, ``REPRO_CC=none``,
codegen gap, compile failure — the engine *degrades, never lies*: it
records a structured :class:`~repro.resilience.budget.Degradation`
(reason + detail, ``resilience.*`` counters, deduplicated warning),
runs the vectorized engine instead, and returns its result with
``engine_used`` naming the engine that actually produced the numbers.
``fallback=False`` turns every degradation into a raise, for benchmarks
that must not silently measure the wrong engine.
"""

from __future__ import annotations

import ctypes
import os
from functools import partial
from typing import Callable, Iterable, Mapping, Optional

import numpy as np

from repro import obs
from repro.codes.base import Code, CodeVersion, Context
from repro.execution.gather import fill_halo
from repro.execution.interpreter import ExecutionResult, require_legal
from repro.execution.vectorized import execute_vectorized
from repro.resilience.budget import Degradation, record_degradation

__all__ = ["NativeFallback", "execute_native", "native_runners"]


class NativeFallback(UserWarning):
    """The native engine fell back to the vectorized engine."""


#: ``double combine(const double *v, const int *q)`` — the hook-combine
#: callback type matching the generated ``combine_fn`` typedef.
_COMBINE_FN = ctypes.CFUNCTYPE(
    ctypes.c_double,
    ctypes.POINTER(ctypes.c_double),
    ctypes.POINTER(ctypes.c_int),
)


def _hook_callback(code: Code, ctx: Context):
    """A ctypes callback adapting a SemanticsHook combine to the C ABI.

    One Python call per iteration — the hook contract trades speed for
    expressiveness (psm's data-dependent table reads cannot be inlined),
    so hook codes run native mainly for contract coverage, not speed.
    """
    n = len(code.source_distances)
    dim = len(code.program.loop.indices)
    combine = code.combine

    def call(v_ptr, q_ptr):
        values = v_ptr[:n]
        q = tuple(q_ptr[:dim])
        return combine(values, q, ctx)

    return _COMBINE_FN(call)


def _bind_runs(entries, lib: ctypes.CDLL):
    """``(lib, [run, ...])`` of one loaded object, argtypes set on each
    of its kernels' ``entries`` (entry-point names).

    The library handle rides along so profiled objects can expose their
    kernel-time globals, read back via ``in_dll``.
    """
    runs = []
    for entry in entries:
        run = getattr(lib, entry)
        run.restype = None
        run.argtypes = [
            ctypes.POINTER(ctypes.c_double),
            ctypes.POINTER(ctypes.c_double),
            _COMBINE_FN,
        ]
        runs.append(run)
    return lib, runs


def _degrade(
    version: CodeVersion,
    sizes: Mapping[str, int],
    seed: int,
    check_legality: bool,
    fallback: bool,
    reason: str,
    detail: str,
) -> ExecutionResult:
    """Structured fallback to the vectorized engine (or raise)."""
    if not fallback:
        raise ValueError(
            f"cannot run {version} natively ({reason}): {detail}"
        )
    degradation = Degradation(
        reason=reason, detail=detail, fallback="vectorized-engine"
    )
    record_degradation("execution.native", degradation)
    obs.warn_once(
        ("native-fallback", version.code.name, reason),
        f"native engine unavailable for {version} ({reason}); "
        "running the vectorized engine instead",
        NativeFallback,
        event="native.fallback",
        counter="native.fallbacks",
        code=version.code.name,
        version=version.key,
        reason=reason,
    )
    result = execute_vectorized(
        version, sizes, seed=seed, check_legality=check_legality
    )
    result.degradation = degradation
    return result


def native_runners(
    versions: Iterable[CodeVersion],
    sizes: Mapping[str, int],
    seed: int = 0,
    check_legality: bool = False,
    fallback: bool = True,
    cache_dir: Optional[os.PathLike] = None,
    profile: Optional[bool] = None,
) -> list[Callable[[], ExecutionResult]]:
    """Build one shared object for ``versions``; one runner per version.

    Every version that lowers to C becomes one kernel of a single
    translation unit, so the batch costs one compiler run (none on a
    warm ``.so`` cache) and one load.  Calling a runner runs its version
    and returns its :class:`ExecutionResult`.

    A version that cannot run natively gets a runner that degrades it
    alone: a codegen gap degrades only its own version, while a missing
    toolchain, a compile failure or a load failure degrades every version
    of the object, each with its own record.  The other arguments are
    :func:`execute_native`'s.
    """
    from repro.codegen import c_gen
    from repro.codegen.build import (
        NO_TOOLCHAIN,
        NativeUnavailable,
        discover_toolchain,
        load_library,
    )

    versions = list(versions)
    if profile is None:
        profile = obs.profiling()

    kernels: dict[int, c_gen.CKernel] = {}
    unavailable: dict[int, NativeUnavailable] = {}
    if discover_toolchain() is None:
        # A missing toolchain is reported before a codegen gap.
        unavailable = dict.fromkeys(
            range(len(versions)),
            NativeUnavailable("no-toolchain", NO_TOOLCHAIN),
        )
    else:
        for k, version in enumerate(versions):
            try:
                kernels[k] = c_gen.lower_kernel(version, sizes)
            except NotImplementedError as exc:
                unavailable[k] = NativeUnavailable(
                    "codegen-unsupported", str(exc)
                )
    runners: dict[int, Callable[[], ExecutionResult]] = {}
    if kernels:
        symbols = c_gen.kernel_symbols(len(kernels))
        try:
            lib, runs = load_library(
                c_gen.translation_unit(list(kernels.values()), profile),
                partial(_bind_runs, [entry for entry, _ in symbols]),
                "+".join(
                    f"{versions[k].code.name}/{versions[k].key}"
                    for k in kernels
                ),
                cache_dir,
            )
        except NativeUnavailable as exc:
            unavailable.update(dict.fromkeys(kernels, exc))
        else:
            for k, run, (_, timer) in zip(kernels, runs, symbols):
                runners[k] = partial(
                    _run_kernel, versions[k], sizes, seed, check_legality,
                    lib, run, timer if profile else None,
                )
    for k, exc in unavailable.items():
        runners[k] = partial(
            _degrade, versions[k], sizes, seed, check_legality, fallback,
            exc.reason, exc.detail,
        )
    return [runners[k] for k in range(len(versions))]


def execute_native(
    version: CodeVersion,
    sizes: Mapping[str, int],
    seed: int = 0,
    check_legality: bool = False,
    fallback: bool = True,
    cache_dir: Optional[os.PathLike] = None,
    profile: Optional[bool] = None,
) -> ExecutionResult:
    """Run one version to completion through the compiled tier.

    ``cache_dir`` overrides the shared-object cache location (tests use
    a temp dir); ``fallback=False`` raises instead of degrading when the
    tier is unavailable.  ``profile`` compiles the instrumented variant
    of the kernel (``clock_gettime`` around the loop nest) and reports
    the kernel's own wall time as ``result.kernel_s`` plus the
    ``native.kernel_s`` histogram; the default (None) follows the global
    ``obs.profiling()`` flag that ``--profile`` arms.
    """
    (run,) = native_runners(
        [version], sizes, seed=seed, check_legality=check_legality,
        fallback=fallback, cache_dir=cache_dir, profile=profile,
    )
    return run()


def _run_kernel(
    version: CodeVersion,
    sizes: Mapping[str, int],
    seed: int,
    check_legality: bool,
    lib: ctypes.CDLL,
    run,
    timer: Optional[str],
) -> ExecutionResult:
    """Run one loaded kernel; ``timer`` names its kernel-time global
    when the object is profiled, else ``None``."""
    code: Code = version.code
    ctx = code.make_context(sizes, seed)
    bounds = code.bounds(sizes)
    mapping = version.mapping(sizes)

    if check_legality:
        require_legal(version, mapping, version.schedule(sizes), bounds)

    storage = np.zeros(mapping.size, dtype=np.float64)
    halo = fill_halo(code, bounds, ctx)

    spec = getattr(code, "spec", None)
    needs_hook = spec is None or spec.combine.get("kind") == "hook"
    combine_cb = (
        _hook_callback(code, ctx) if needs_hook else _COMBINE_FN()
    )

    kernel_s = None
    with obs.span(
        "native.run",
        code=code.name,
        version=version.key,
        sizes=dict(sizes),
        so=os.path.basename(lib._name),  # CDLL's public path attribute
        profiled=timer is not None,
    ) as sp:
        run(
            storage.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
            halo.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
            combine_cb,
        )
        if timer is not None:
            # The instrumented object reports its own clock_gettime
            # bracket around the loop nest — FFI and halo setup excluded.
            kernel_s = ctypes.c_double.in_dll(lib, timer).value * 1e-9
            sp.set(kernel_s=kernel_s)

    metrics = obs.get_metrics()
    metrics.counter("native.runs").inc()
    metrics.counter("native.points").inc(code.iteration_count(sizes))
    if kernel_s is not None:
        metrics.histogram("native.kernel_s").observe(kernel_s)
        metrics.counter("native.profiled_runs").inc()

    result = ExecutionResult(
        version, sizes, storage, mapping.compiled(), bounds, ctx
    )
    result.engine_used = "native"
    if kernel_s is not None:
        result.kernel_s = kernel_s
    return result
