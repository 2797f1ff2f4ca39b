"""C toolchain discovery, the shared-object cache and its load policy.

The native execution tier turns :func:`repro.codegen.c_gen.generate_c`
output into a loadable shared object.  This module owns the
non-portable parts:

- **Toolchain discovery** (:func:`discover_toolchain`): the ``REPRO_CC``
  environment variable wins (set it to ``none`` or the empty string to
  *disable* native compilation — the CI no-compiler leg uses this), then
  the first of ``cc``/``gcc``/``clang`` on PATH that answers
  ``--version``.  Discovery compiles nothing.  The discovered
  :class:`Toolchain` carries a fingerprint — a digest of the resolved
  compiler path, its ``--version`` banner, and the requested flag set —
  which is folded into both the ``.so`` content hash and the repo-wide
  :func:`~repro.store.fingerprint.engine_fingerprint`, so upgrading the
  compiler invalidates every cached artifact instead of silently reusing
  objects built by a different code generator.
- **Compilation caching** (:func:`compile_so`): shared objects are
  content-hash-named (``sha256(source + toolchain fingerprint)``) under
  a cache directory, installed atomically (unique temp + ``os.replace``)
  so concurrent compiles never observe a torn object.
- **The load policy** (:func:`load_library`), the one every ``.so``
  client uses: an object that fails to load is quarantined to
  ``.corrupt/`` (the store's :func:`~repro.store.backend.quarantine_file`)
  and rebuilt once; what still fails raises :class:`NativeUnavailable`.

Flags are ``-O2 -march=native -fPIC -shared -ffp-contract=off`` — the
paper's ``gcc -O2`` plus modern arch tuning; ``-ffp-contract=off`` is
load-bearing (GCC's C default contracts ``a*b + c`` into FMA, which
would break the bit-for-bit differential tests against the interpreter).
The first real build is the probe.  Only a failed build compiles a
one-line source to find out what is at fault: the source (the flags
build the probe), ``-march=native`` (only the flags without it do: the
process warns once, keeps building without it, and the fingerprint
still records the requested flags), or the compiler itself (neither
does; a requested sanitizer is never dropped).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

__all__ = [
    "CC_ENV",
    "SANITIZE_ENV",
    "CompileError",
    "NativeUnavailable",
    "Toolchain",
    "compile_so",
    "default_so_cache_dir",
    "discover_toolchain",
    "load_library",
    "reset_toolchain_cache",
    "sanitize_flags",
    "toolchain_fingerprint",
]

#: Environment override for the compiler: a path/name to use, or
#: ``none`` / empty to disable native compilation entirely.
CC_ENV = "REPRO_CC"

#: Comma-separated sanitizers to build native objects with
#: (``address``, ``undefined``).  The flags become part of the
#: :class:`Toolchain` flag set and therefore of its fingerprint, so
#: sanitized objects get their own ``.so`` cache slot — flipping the
#: variable never reuses (or poisons) unsanitized builds.
SANITIZE_ENV = "REPRO_CC_SANITIZE"

#: Environment override for the shared-object cache directory.
SO_CACHE_ENV = "REPRO_SO_CACHE"

#: Candidate compilers, tried in order, when ``REPRO_CC`` is unset.
CC_CANDIDATES = ("cc", "gcc", "clang")

#: Baseline flag set; see the module docstring for why -ffp-contract=off.
BASE_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: Arch tuning, dropped (with a deduplicated warning) where unsupported.
ARCH_FLAG = "-march=native"

#: Seconds before a wedged compiler invocation is abandoned.
COMPILE_TIMEOUT_S = 120.0

#: Recognised ``REPRO_CC_SANITIZE`` values and the flags each adds.
#: ``-fno-sanitize-recover`` makes UBSan findings fatal (a silent
#: diagnostic would let CI pass on undefined behavior); ASan aborts by
#: default.  ``-g -fno-omit-frame-pointer`` (added once, below) keeps
#: the reports symbolised and stack-accurate.
SANITIZERS: dict[str, tuple[str, ...]] = {
    "address": ("-fsanitize=address",),
    "undefined": (
        "-fsanitize=undefined",
        "-fno-sanitize-recover=undefined",
    ),
}


class CompileError(RuntimeError):
    """A compiler invocation failed (non-zero exit, timeout, missing cc)."""


class NativeUnavailable(RuntimeError):
    """A native object cannot be built or loaded; ``reason`` is one of
    ``no-toolchain``, ``compile-failed``, ``load-failed``."""

    def __init__(self, reason: str, detail: str):
        super().__init__(f"{reason}: {detail}")
        self.reason = reason
        self.detail = detail


#: The ``no-toolchain`` detail every client reports.
NO_TOOLCHAIN = "no C compiler on PATH (or REPRO_CC=none)"


def sanitize_flags() -> tuple[str, ...]:
    """Flags requested via ``REPRO_CC_SANITIZE`` (empty when unset).

    An unknown sanitizer name raises :class:`CompileError` immediately:
    a typo silently building unsanitized objects would defeat the CI leg
    that exists to catch memory bugs.
    """
    raw = os.environ.get(SANITIZE_ENV, "").strip()
    if not raw:
        return ()
    flags: list[str] = ["-g", "-fno-omit-frame-pointer"]
    for name in raw.split(","):
        name = name.strip().lower()
        if not name:
            continue
        if name not in SANITIZERS:
            raise CompileError(
                f"unknown sanitizer {name!r} in {SANITIZE_ENV}; one of "
                f"{sorted(SANITIZERS)}"
            )
        flags.extend(SANITIZERS[name])
    return tuple(dict.fromkeys(flags))


@dataclass(frozen=True)
class Toolchain:
    """One discovered C compiler: resolved path, identity, flag set."""

    cc: str
    version: str
    flags: tuple[str, ...] = BASE_FLAGS + (ARCH_FLAG,)

    @property
    def fingerprint(self) -> str:
        """Digest of everything that affects generated object code."""
        digest = hashlib.sha256()
        for part in (self.cc, self.version, " ".join(self.flags)):
            digest.update(part.encode())
            digest.update(b"\0")
        return digest.hexdigest()[:16]

    def describe(self) -> str:
        return f"{self.cc} ({self.version.splitlines()[0]})"


#: Memoised discovery result: ``None`` = not discovered yet, ``(tc,)`` =
#: discovered (tc may itself be None when no compiler exists).
_TOOLCHAIN: Optional[tuple[Optional[Toolchain]]] = None

#: Toolchains whose builds this process found must drop ``ARCH_FLAG``,
#: mapped to the flags they build with instead.
_BUILD_FLAGS: dict[Toolchain, tuple[str, ...]] = {}


def reset_toolchain_cache() -> None:
    """Forget the memoised discovery (tests flip PATH / REPRO_CC)."""
    global _TOOLCHAIN
    _TOOLCHAIN = None
    _BUILD_FLAGS.clear()
    # The engine fingerprint folds the toolchain in; forget it too.
    from repro.store.fingerprint import reset_engine_fingerprint

    reset_engine_fingerprint()


def discover_toolchain() -> Optional[Toolchain]:
    """The C toolchain to build with, or ``None`` when native is unavailable.

    Discovers once per process (reset with :func:`reset_toolchain_cache`)
    and compiles nothing: takes the first candidate that answers
    ``--version``, captures its banner, and records the requested flags,
    ``BASE_FLAGS + (ARCH_FLAG,) + sanitize_flags()``.  The first real
    build is the probe; :func:`compile_so` diagnoses a build that fails.
    """
    global _TOOLCHAIN
    if _TOOLCHAIN is not None:
        return _TOOLCHAIN[0]

    import time

    from repro import obs

    override = os.environ.get(CC_ENV)
    if override is not None and override.strip().lower() in ("", "none"):
        _TOOLCHAIN = (None,)
        return None
    probe_t0 = time.perf_counter()
    found: Optional[Toolchain] = None
    for name in (override,) if override else CC_CANDIDATES:
        path = shutil.which(name)
        if path is None:
            continue
        try:
            probe = subprocess.run(
                [path, "--version"],
                capture_output=True,
                text=True,
                timeout=COMPILE_TIMEOUT_S,
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        if probe.returncode != 0:
            continue
        found = Toolchain(
            cc=path,
            version=probe.stdout.strip() or probe.stderr.strip(),
            flags=BASE_FLAGS + (ARCH_FLAG,) + sanitize_flags(),
        )
        obs.event("native.toolchain", cc=path, fingerprint=found.fingerprint)
        break
    obs.get_metrics().gauge("native.toolchain.probe_s").set(
        time.perf_counter() - probe_t0
    )
    _TOOLCHAIN = (found,)
    return found


def _accepts_flags(cc: str, flags: tuple[str, ...]) -> bool:
    """Whether one tiny compile with ``flags`` succeeds."""
    import tempfile

    with tempfile.TemporaryDirectory(prefix="repro-ccprobe-") as tmp:
        src = Path(tmp) / "probe.c"
        src.write_text("int repro_probe(void) { return 0; }\n")
        out = Path(tmp) / "probe.so"
        try:
            result = subprocess.run(
                [cc, *flags, "-o", str(out), str(src)],
                capture_output=True,
                timeout=COMPILE_TIMEOUT_S,
            )
        except (OSError, subprocess.TimeoutExpired):
            return False
        return result.returncode == 0


def _retry_flags(
    toolchain: Toolchain, flags: tuple[str, ...], failure: str
) -> tuple[str, ...]:
    """The flags to retry a build that failed with ``flags``.

    Probe compiles find the fault.  When ``flags`` build the one-line
    probe, the source is at fault and :class:`CompileError` carries
    ``failure``.  When only the flags without ``ARCH_FLAG`` do, this
    process warns once and builds with them from now on.  When neither
    does, :class:`CompileError` names the rejected flags; a sanitizer is
    never dropped to make a build pass.
    """
    from repro import obs

    cc = toolchain.cc
    if _accepts_flags(cc, flags):
        raise CompileError(failure)
    reduced = tuple(flag for flag in flags if flag != ARCH_FLAG)
    if reduced != flags and _accepts_flags(cc, reduced):
        obs.warn_once(
            ("native-no-march", cc),
            f"{cc}: {ARCH_FLAG} rejected; compiling without arch tuning",
            event="native.no_march_native",
            counter="native.no_march_native",
            cc=cc,
        )
        _BUILD_FLAGS[toolchain] = reduced
        return reduced
    sanitizers = [flag for flag in reduced if flag.startswith("-fsanitize=")]
    if sanitizers:
        obs.warn_once(
            ("native-no-sanitize", cc),
            f"{cc}: sanitizer flags {sanitizers} rejected; native builds "
            "fail rather than run unsanitized",
            event="native.no_sanitize",
            counter="native.no_sanitize",
            cc=cc,
        )
    raise CompileError(
        f"{cc} rejects the flags {' '.join(reduced)}: a one-line probe "
        "fails to build with them"
    )


def toolchain_fingerprint() -> str:
    """The toolchain identity folded into the engine fingerprint.

    ``"none"`` when no compiler is available — so gaining or losing a
    toolchain also (correctly) invalidates cached pipeline artifacts,
    whose execute stage records which engine actually ran.  (The
    consolidated :mod:`repro.store.fingerprint` module delegates here;
    this is the single implementation.)
    """
    tc = discover_toolchain()
    return tc.fingerprint if tc is not None else "none"


def default_so_cache_dir() -> Path:
    """Where compiled objects live: ``$REPRO_SO_CACHE`` or the XDG-style
    user cache (shared across runs so warm starts never recompile)."""
    override = os.environ.get(SO_CACHE_ENV)
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "native"


def source_key(source: str, toolchain: Toolchain) -> str:
    """Content hash naming one compiled object."""
    digest = hashlib.sha256()
    digest.update(source.encode())
    digest.update(b"\0")
    digest.update(toolchain.fingerprint.encode())
    return digest.hexdigest()[:24]


def compile_so(
    source: str,
    toolchain: Optional[Toolchain] = None,
    cache_dir: Optional[os.PathLike] = None,
    label: str = "?",
) -> Path:
    """Compile ``source`` (or find it pre-compiled) and return the ``.so``.

    Cache hits cost one ``stat``; misses compile into a per-pid temp
    inside the cache directory and ``os.replace`` it in, so two racing
    processes converge on one identical object.  Raises
    :class:`CompileError` when no toolchain exists or the compile fails
    after its diagnosis (callers degrade to the vectorized engine on
    that).
    """
    from repro import obs

    if toolchain is None:
        toolchain = discover_toolchain()
    if toolchain is None:
        raise CompileError(
            "no C toolchain available (cc/gcc/clang not on PATH, or "
            f"{CC_ENV} set to 'none')"
        )
    cache = Path(cache_dir) if cache_dir is not None else default_so_cache_dir()
    cache.mkdir(parents=True, exist_ok=True)
    key = source_key(source, toolchain)
    so_path = cache / f"run-{key}.so"
    metrics = obs.get_metrics()
    if so_path.exists():
        metrics.counter("native.compile.cache_hits").inc()
        return so_path

    import time

    metrics.counter("native.compiles").inc()
    compile_t0 = time.perf_counter()
    with obs.span("native.compile", label=label, key=key, cc=toolchain.cc):
        c_path = cache / f"run-{key}.{os.getpid()}.c"
        tmp_so = cache / f"run-{key}.{os.getpid()}.so.tmp"
        try:
            c_path.write_text(source)
            _build(toolchain, c_path, tmp_so, label)
            os.replace(tmp_so, so_path)
        finally:
            tmp_so.unlink(missing_ok=True)
            c_path.unlink(missing_ok=True)
    compile_wall = time.perf_counter() - compile_t0
    metrics.histogram("native.compile.wall_s").observe(compile_wall)
    _record_compile_provenance(cache, key, so_path, toolchain, label,
                               compile_wall)
    return so_path


def _build(
    toolchain: Toolchain, c_path: Path, out: Path, label: str
) -> None:
    """Compile ``c_path`` into ``out``.  A failed build is diagnosed by
    :func:`_retry_flags` and retried once with the flags it returns."""
    flags = _BUILD_FLAGS.get(toolchain, toolchain.flags)
    failure = _run_compiler(toolchain.cc, flags, c_path, out, label)
    if failure is not None:
        flags = _retry_flags(toolchain, flags, failure)
        failure = _run_compiler(toolchain.cc, flags, c_path, out, label)
    if failure is not None:
        raise CompileError(failure)


def _run_compiler(
    cc: str, flags: tuple[str, ...], c_path: Path, out: Path, label: str
) -> Optional[str]:
    """Build ``c_path`` into ``out``: ``None``, or why the compiler failed.

    A compiler that cannot be run or times out raises
    :class:`CompileError`; no probe would tell more."""
    try:
        result = subprocess.run(
            [cc, *flags, "-o", str(out), str(c_path)],
            capture_output=True,
            text=True,
            timeout=COMPILE_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise CompileError(f"{cc} failed to run: {exc}")
    if result.returncode == 0:
        return None
    return (
        f"{cc} exited {result.returncode} compiling "
        f"{label}:\n{result.stderr.strip()[:2000]}"
    )


def _record_compile_provenance(
    cache: Path,
    key: str,
    so_path: Path,
    toolchain: Toolchain,
    label: str,
    wall_s: float,
) -> None:
    """A ``run-<key>.json`` meta entry beside each fresh object, so the
    so-cache answers ``repro store query --op=compile-so`` with full
    provenance (toolchain fingerprint, source label, wall time).  Best
    effort: a failure here never fails the compile itself."""
    try:
        from repro.store.core import Store
        from repro.store.provenance import Provenance

        store = Store.open(cache, site="native.so-cache")
        store.put(
            f"run-{key}",
            {"file": so_path.name, "nbytes": so_path.stat().st_size},
            provenance=Provenance.now(
                op="compile-so",
                inputs={"source": key},
                engine=toolchain.fingerprint,
                wall_s=round(wall_s, 6),
                extra={"label": label, "cc": toolchain.cc},
            ),
            label=label,
        )
    except OSError:
        pass


def load_library(
    source: str,
    bind: Callable[[ctypes.CDLL], Any],
    label: str = "?",
    cache_dir: Optional[os.PathLike] = None,
) -> Any:
    """``bind(lib)`` for the compiled, loaded ``source`` (not memoised).

    ``bind`` sets argtypes; a symbol it misses fails the load just as an
    unloadable object does."""
    toolchain = discover_toolchain()
    if toolchain is None:
        raise NativeUnavailable("no-toolchain", NO_TOOLCHAIN)

    def compile_() -> Path:
        try:
            return compile_so(
                source, toolchain=toolchain, cache_dir=cache_dir, label=label
            )
        except (CompileError, OSError) as exc:
            raise NativeUnavailable("compile-failed", str(exc)) from exc

    so_path = compile_()
    try:
        return bind(ctypes.CDLL(str(so_path)))
    except (OSError, AttributeError) as exc:
        from repro.store.backend import quarantine_file

        # Moved aside, so the rebuild below writes a fresh object.
        quarantine_file(
            so_path, site="native.so-cache", problem=f"unloadable: {exc}"
        )
    so_path = compile_()
    try:
        return bind(ctypes.CDLL(str(so_path)))
    except (OSError, AttributeError) as exc:
        raise NativeUnavailable("load-failed", str(exc)) from exc
