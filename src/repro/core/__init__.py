"""The paper's primary contribution: universal occupancy vectors.

- :mod:`repro.core.stencil` — the regular dependence stencil abstraction.
- :mod:`repro.core.cone` — non-negative integer cone membership (the
  feasibility kernel behind ``DONE``/``DEAD``/UOV membership).
- :mod:`repro.core.uov` — occupancy vectors, UOV membership and
  certificates, the trivially-computed initial UOV.
- :mod:`repro.core.search` — the branch-and-bound optimal-UOV search of
  Section 3.2 with per-point ``PATHSET`` propagation.
- :mod:`repro.core.storage_metric` — storage cost of an OV over an ISG
  (Sections 3.2.1 and 4.3).
- :mod:`repro.core.npcomplete` — the PARTITION reduction of Section 3.1.
- :mod:`repro.core.multiloop` — common UOVs across several loop nests
  (the paper's Section 7 future work).
"""

from repro.util.lazy import lazy_exports

__all__ = [
    "Stencil",
    "ConeSolver",
    "in_integer_cone",
    "coefficient_bound",
    "positivity_functional",
    "done_set",
    "dead_set",
    "is_uov",
    "initial_uov",
    "uov_certificates",
    "uov_rejection",
    "enumerate_uovs",
    "expand_certificate",
    "SearchResult",
    "find_optimal_uov",
    "find_uov_with_fallback",
    "storage_for_ov",
    "min_projection",
    "IncumbentUpdate",
    "search_length_bound",
    "is_common_uov",
    "find_common_uov",
    "common_uov_exists_direction",
    "reduction_from_partition",
    "partition_solvable",
    "partition_brute_force",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.cone": (
            "ConeSolver",
            "coefficient_bound",
            "dead_set",
            "done_set",
            "expand_certificate",
            "in_integer_cone",
            "positivity_functional",
        ),
        "repro.core.multiloop": (
            "common_uov_exists_direction",
            "find_common_uov",
            "is_common_uov",
        ),
        "repro.core.npcomplete": (
            "partition_brute_force",
            "partition_solvable",
            "reduction_from_partition",
        ),
        "repro.core.search": (
            "IncumbentUpdate",
            "SearchResult",
            "find_optimal_uov",
            "find_uov_with_fallback",
        ),
        "repro.core.stencil": ("Stencil",),
        "repro.core.storage_metric": (
            "min_projection",
            "search_length_bound",
            "storage_for_ov",
        ),
        "repro.core.uov": (
            "enumerate_uovs",
            "initial_uov",
            "is_uov",
            "uov_certificates",
            "uov_rejection",
        ),
    },
)
