"""Package re-exports that load on first use (PEP 562).

A package ``__init__.py`` that only re-exports names from its modules
imports every one of them, and everything they import, whenever any
module of the package is imported.  :func:`lazy_exports` builds the
package's module-level ``__getattr__`` and ``__dir__`` instead, so a
re-exported name imports its module the first time it is read::

    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.ir.affine": ("AffineExpr",),
            "repro.ir.loop": ("LoopNest",),
        },
    )

``from pkg import name``, ``from pkg import *`` (through ``__all__``)
and ``dir(pkg)`` behave as with eager imports.  A name resolved once is
stored in the package's namespace, so later reads never reach
``__getattr__``.  An export that shares its name with a submodule of
the package (``repro.analysis.certify``, the function) stays the
export, as an eager ``from .certify import certify`` left it.
"""

from __future__ import annotations

import importlib
import sys
from types import ModuleType
from typing import Any, Callable, Iterable, Mapping

__all__ = ["lazy_exports"]


class _ExportsFirst(ModuleType):
    """A package whose exports (its ``__all__``) win over its submodules
    of the same name.

    The import system binds every submodule it loads as an attribute of
    its package; for an export of the same name that binding would hide
    the export from ``__getattr__`` for good, so it is skipped.
    """

    def __setattr__(self, name: str, value: Any) -> None:
        if (
            isinstance(value, ModuleType)
            and value.__name__ == f"{self.__name__}.{name}"
            and name in self.__dict__.get("__all__", ())
        ):
            return
        super().__setattr__(name, value)


def lazy_exports(
    package: str, modules: Mapping[str, Iterable[str]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package``, whose names are
    re-exported from ``modules`` (module name -> names) on first use."""
    module = sys.modules[package]
    namespace = vars(module)
    origin = {
        name: source for source, names in modules.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        source = origin.get(name)
        if source is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(source), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | origin.keys())

    if any(source == f"{package}.{name}" for name, source in origin.items()):
        module.__class__ = _ExportsFirst
    return __getattr__, __dir__
