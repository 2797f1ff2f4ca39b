"""Low-level integer, lattice, and geometric utilities.

These are the mathematical substrates the UOV machinery is built on:

- :mod:`repro.util.intmath` — gcd / extended gcd, unimodular completion.
- :mod:`repro.util.vectors` — operations on integer vectors (tuples).
- :mod:`repro.util.polyhedron` — convex polytopes: vertices, projections,
  widths; used for ISG bounds and storage metrics.
- :mod:`repro.util.priorityqueue` — a stable priority queue with lazy
  reprioritisation, used by the branch-and-bound UOV search.
"""

from typing import TYPE_CHECKING

from repro.util.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.util.intmath import (
        extended_gcd,
        unimodular_completion,
        vector_gcd,
    )
    from repro.util.polyhedron import Polytope
    from repro.util.priorityqueue import PriorityQueue
    from repro.util.vectors import (
        add,
        dot,
        is_lex_positive,
        neg,
        norm2,
        scale,
        sub,
    )

__all__ = [
    "extended_gcd",
    "unimodular_completion",
    "vector_gcd",
    "Polytope",
    "PriorityQueue",
    "add",
    "sub",
    "neg",
    "scale",
    "dot",
    "norm2",
    "is_lex_positive",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.util.intmath": (
            "extended_gcd",
            "unimodular_completion",
            "vector_gcd",
        ),
        "repro.util.polyhedron": ("Polytope",),
        "repro.util.priorityqueue": ("PriorityQueue",),
        "repro.util.vectors": (
            "add",
            "dot",
            "is_lex_positive",
            "neg",
            "norm2",
            "scale",
            "sub",
        ),
    },
)
