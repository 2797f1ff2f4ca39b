"""Deterministic, seedable fault injection at named sites.

Every recovery path in the resilience layer is provable only if the
fault it recovers from can be produced on demand.  A :class:`FaultPlan`
is a list of :class:`FaultRule` clauses armed either programmatically
(:func:`install_plan`) or through the environment (``REPRO_FAULTS`` —
which worker *processes* inherit, so injected worker crashes exercise
the real cross-process recovery machinery).

Spec grammar (one clause per fault, ``;``-separated)::

    site:kind[:key=value[,key=value...]]

    harness.worker:kill:times=2,match=L=16
    harness.worker:transient:times=1
    harness.worker:timeout:delay=30
    harness.cache.store:corrupt
    search.node:crash:after=10
    pipeline.stage.execute:transient:p=0.5

Kinds:

- ``kill`` — hard process death (``os._exit``): the worker vanishes
  without a traceback, as a segfault or OOM kill would.
- ``crash`` — raise :class:`InjectedCrash` (an unexpected exception).
- ``transient`` — raise :class:`InjectedTransient` (retryable by
  contract; succeeds once the injection count is exhausted).
- ``timeout`` — sleep ``delay`` seconds (default 3600), tripping any
  per-task timeout watching the site.
- ``corrupt`` — the call site scribbles over the artifact it just wrote
  (see :func:`maybe_corrupt`), exercising digest-verified reads.

Keys: ``times=N`` (max injections, default 1), ``after=N`` (skip the
first N matching calls in each process — a persistent pool worker
counts across all the tasks it runs, and starts from zero when it is
replaced), ``match=substr`` (only calls
whose label contains the substring), ``p=0.x`` (per-call probability
drawn from a per-rule ``random.Random(seed)`` — deterministic within a
process), ``delay=S`` (timeout sleep seconds).

Injection *counts* are the deterministic backbone.  Within one process
they are plain counters; when ``REPRO_FAULTS_DIR`` names a scratch
directory, each injection slot is claimed by atomically creating a
sentinel file (``O_CREAT | O_EXCL``), so ``times=2`` means exactly two
injections **across every process of the run** — a crashed-and-replaced
worker does not reset the tally, which is what lets a chaos test assert
"crash twice, then succeed on the third attempt".
"""

from __future__ import annotations

import os
import random
import time
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import MutableMapping, Optional, Sequence

__all__ = [
    "FaultPlan",
    "FaultRule",
    "InjectedCrash",
    "InjectedFault",
    "InjectedTransient",
    "active_plan",
    "install_plan",
    "maybe_corrupt",
    "maybe_fault",
]

ENV_SPEC = "REPRO_FAULTS"
ENV_SEED = "REPRO_FAULTS_SEED"
ENV_DIR = "REPRO_FAULTS_DIR"

KINDS = ("kill", "crash", "transient", "timeout", "corrupt")

#: Exit status used by ``kill`` injections, distinctive in waitpid output.
KILL_EXIT_CODE = 113


class InjectedFault(RuntimeError):
    """Base class of every exception raised by the injector."""

    def __init__(self, site: str, label: str = ""):
        self.site = site
        self.label = label
        suffix = f" ({label})" if label else ""
        super().__init__(f"injected fault at {site}{suffix}")


class InjectedCrash(InjectedFault):
    """An unexpected, non-retryable-looking exception."""


class InjectedTransient(InjectedFault):
    """A fault that is retryable by contract."""


@dataclass(frozen=True)
class FaultRule:
    """One armed fault: where, what, how often."""

    site: str
    kind: str
    times: int = 1
    after: int = 0
    match: str = ""
    p: float = 1.0
    delay: float = 3600.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; one of {list(KINDS)}"
            )

    @property
    def rule_id(self) -> str:
        tag = f"{self.site}:{self.kind}:{self.match}:{self.after}"
        return f"{zlib.crc32(tag.encode()):08x}"

    def to_clause(self) -> str:
        keys = []
        if self.times != 1:
            keys.append(f"times={self.times}")
        if self.after:
            keys.append(f"after={self.after}")
        if self.match:
            keys.append(f"match={self.match}")
        if self.p != 1.0:
            keys.append(f"p={self.p}")
        if self.delay != 3600.0:
            keys.append(f"delay={self.delay}")
        clause = f"{self.site}:{self.kind}"
        return clause + (":" + ",".join(keys) if keys else "")

    @classmethod
    def from_clause(cls, clause: str) -> "FaultRule":
        parts = clause.strip().split(":", 2)
        if len(parts) < 2:
            raise ValueError(
                f"bad fault clause {clause!r}: want site:kind[:key=value,...]"
            )
        site, kind = parts[0].strip(), parts[1].strip()
        rule = cls(site=site, kind=kind)
        if len(parts) == 3 and parts[2].strip():
            kwargs = {}
            for pair in parts[2].split(","):
                key, sep, value = pair.partition("=")
                key = key.strip()
                if not sep or key not in (
                    "times",
                    "after",
                    "match",
                    "p",
                    "delay",
                ):
                    raise ValueError(
                        f"bad fault option {pair!r} in clause {clause!r}"
                    )
                if key in ("times", "after"):
                    kwargs[key] = int(value)
                elif key in ("p", "delay"):
                    kwargs[key] = float(value)
                else:
                    kwargs[key] = value
            rule = replace(rule, **kwargs)
        return rule


class FaultPlan:
    """A set of armed fault rules with deterministic injection counting."""

    def __init__(
        self,
        rules: Sequence[FaultRule],
        seed: int = 0,
        scratch_dir: Optional[os.PathLike] = None,
    ):
        self.rules = tuple(rules)
        self.seed = int(seed)
        self.scratch_dir = Path(scratch_dir) if scratch_dir else None
        if self.scratch_dir is not None:
            self.scratch_dir.mkdir(parents=True, exist_ok=True)
        self._calls: MutableMapping[str, int] = {}
        self._injected: MutableMapping[str, int] = {}
        self._rngs: MutableMapping[str, random.Random] = {}

    # -- construction -----------------------------------------------------

    @classmethod
    def from_spec(
        cls,
        spec: str,
        seed: int = 0,
        scratch_dir: Optional[os.PathLike] = None,
    ) -> "FaultPlan":
        rules = [
            FaultRule.from_clause(clause)
            for clause in spec.split(";")
            if clause.strip()
        ]
        if not rules:
            raise ValueError(f"fault spec {spec!r} contains no clauses")
        return cls(rules, seed=seed, scratch_dir=scratch_dir)

    def spec(self) -> str:
        return ";".join(rule.to_clause() for rule in self.rules)

    def arm_env(self, env: Optional[MutableMapping] = None) -> MutableMapping:
        """Write the plan into ``env`` so child processes inherit it."""
        env = os.environ if env is None else env
        env[ENV_SPEC] = self.spec()
        env[ENV_SEED] = str(self.seed)
        if self.scratch_dir is not None:
            env[ENV_DIR] = str(self.scratch_dir)
        else:
            env.pop(ENV_DIR, None)
        return env

    @classmethod
    def from_env(cls, env: Optional[MutableMapping] = None) -> Optional["FaultPlan"]:
        env = os.environ if env is None else env
        spec = env.get(ENV_SPEC)
        if not spec:
            return None
        return cls.from_spec(
            spec,
            seed=int(env.get(ENV_SEED, "0")),
            scratch_dir=env.get(ENV_DIR) or None,
        )

    # -- injection bookkeeping --------------------------------------------

    def _claim(self, rule: FaultRule) -> bool:
        """Claim one injection slot for ``rule`` (cross-process safe when
        a scratch dir is armed); False when ``times`` is exhausted."""
        if self.scratch_dir is not None:
            for slot in range(rule.times):
                sentinel = self.scratch_dir / f"{rule.rule_id}.{slot}"
                try:
                    fd = os.open(
                        sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                    )
                except FileExistsError:
                    continue
                os.write(fd, f"{os.getpid()}\n".encode())
                os.close(fd)
                return True
            return False
        done = self._injected.get(rule.rule_id, 0)
        if done >= rule.times:
            return False
        self._injected[rule.rule_id] = done + 1
        return True

    def _matches(self, rule: FaultRule, site: str, label: str) -> bool:
        if rule.site != site:
            return False
        if rule.match and rule.match not in label:
            return False
        calls = self._calls.get(rule.rule_id, 0)
        self._calls[rule.rule_id] = calls + 1
        if calls < rule.after:
            return False
        if rule.p < 1.0:
            rng = self._rngs.setdefault(
                rule.rule_id,
                random.Random(f"{self.seed}:{rule.rule_id}"),
            )
            if rng.random() >= rule.p:
                return False
        return True

    def injected(self, site: Optional[str] = None) -> int:
        """Injections performed so far (this process's view)."""
        if self.scratch_dir is not None:
            count = 0
            for rule in self.rules:
                if site is not None and rule.site != site:
                    continue
                for slot in range(rule.times):
                    if (self.scratch_dir / f"{rule.rule_id}.{slot}").exists():
                        count += 1
            return count
        return sum(
            n
            for rid, n in self._injected.items()
            for rule in self.rules
            if rule.rule_id == rid and (site is None or rule.site == site)
        )

    # -- firing -----------------------------------------------------------

    def fire(self, site: str, label: str = "") -> None:
        """Raise / sleep / die if an armed rule matches this call."""
        from repro import obs

        for rule in self.rules:
            if rule.kind == "corrupt" or not self._matches(rule, site, label):
                continue
            if not self._claim(rule):
                continue
            obs.get_metrics().counter("resilience.faults.injected").inc()
            obs.event(
                "resilience.fault",
                site=site,
                kind=rule.kind,
                label=label,
            )
            if rule.kind == "kill":
                os._exit(KILL_EXIT_CODE)
            if rule.kind == "crash":
                raise InjectedCrash(site, label)
            if rule.kind == "transient":
                raise InjectedTransient(site, label)
            if rule.kind == "timeout":
                time.sleep(rule.delay)

    def corrupts(self, site: str, label: str = "") -> bool:
        """True when a ``corrupt`` rule claims an injection at this site."""
        for rule in self.rules:
            if rule.kind != "corrupt" or not self._matches(rule, site, label):
                continue
            if self._claim(rule):
                from repro import obs

                obs.get_metrics().counter("resilience.faults.injected").inc()
                obs.event(
                    "resilience.fault", site=site, kind="corrupt", label=label
                )
                return True
        return False


# -- the process-wide plan ----------------------------------------------------

_UNSET = object()
_PLAN = _UNSET  # _UNSET -> consult the environment lazily


def install_plan(plan: Optional[FaultPlan]):
    """Install ``plan`` process-wide; returns the previous plan (or None).

    ``install_plan(None)`` disarms injection entirely, including any
    environment spec (tests use this to guarantee a clean slate).
    """
    global _PLAN
    previous = _PLAN
    _PLAN = plan
    return None if previous is _UNSET else previous


def reset_plan() -> None:
    """Forget any installed plan and re-arm from the environment."""
    global _PLAN
    _PLAN = _UNSET


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, else one parsed from ``REPRO_FAULTS`` (cached)."""
    global _PLAN
    if _PLAN is _UNSET:
        _PLAN = FaultPlan.from_env()
    return _PLAN


def maybe_fault(site: str, label: str = "") -> None:
    """Injection hook: no-op (one global load + None check) when disarmed."""
    plan = _PLAN
    if plan is _UNSET:
        plan = active_plan()
    if plan is not None:
        plan.fire(site, label)


def maybe_corrupt(site: str, path: os.PathLike, label: str = "") -> bool:
    """Scribble over ``path`` if a ``corrupt`` rule matches; True if so.

    The corruption is deterministic: the file keeps its first half and
    gains a marker suffix, so both "truncated JSON" and "digest
    mismatch" read paths get exercised.
    """
    plan = _PLAN
    if plan is _UNSET:
        plan = active_plan()
    if plan is None or not plan.corrupts(site, label):
        return False
    path = Path(path)
    try:
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2] + b"\x00#injected-corruption")
    except OSError:
        return False
    return True
