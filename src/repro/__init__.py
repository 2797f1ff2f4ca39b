"""repro — Schedule-Independent Storage Mapping for Loops (UOV).

A full reproduction of Strout, Carter, Ferrante, Simon,
*Schedule-Independent Storage Mapping for Loops*, ASPLOS 1998:
universal occupancy vectors, the branch-and-bound optimal-UOV search,
OV-based storage mappings, tiling, and the paper's complete evaluation on
simulated memory hierarchies.

Quickstart::

    from repro import Stencil, find_optimal_uov
    stencil = Stencil([(1, 0), (0, 1), (1, 1)])   # Figure 1
    result = find_optimal_uov(stencil)
    print(result.ov)                               # (1, 1)
"""

from repro.util.lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "Stencil",
    "Polytope",
    "SearchResult",
    "find_optimal_uov",
    "initial_uov",
    "is_uov",
    "uov_certificates",
    "enumerate_uovs",
    "storage_for_ov",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.search": ("SearchResult", "find_optimal_uov"),
        "repro.core.stencil": ("Stencil",),
        "repro.core.storage_metric": ("storage_for_ov",),
        "repro.core.uov": (
            "enumerate_uovs",
            "initial_uov",
            "is_uov",
            "uov_certificates",
        ),
        "repro.util.polyhedron": ("Polytope",),
    },
)
