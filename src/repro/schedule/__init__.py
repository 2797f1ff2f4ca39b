"""Loop schedules: execution orders over rectangular iteration spaces.

The UOV's defining property is *schedule independence*: an OV-mapped loop
stays correct under every legal reordering.  This package supplies the
reorderings the paper discusses — the original lexicographic order, loop
interchange, skewing, wavefronts, and (the one the evaluation centres on)
rectangular tiling with an automatic legalising skew — plus a random-legal-
schedule generator the property tests use to probe universality.
"""

from repro.util.lazy import lazy_exports

__all__ = [
    "SCHEDULES",
    "build_schedule",
    "Schedule",
    "HierarchicalTiledSchedule",
    "LexicographicSchedule",
    "InterchangedSchedule",
    "SkewedSchedule",
    "skew_matrix_2d",
    "WavefrontSchedule",
    "TiledSchedule",
    "required_skew",
    "random_legal_order",
    "sample_legal_orders",
    "all_legal_orders",
    "count_legal_orders",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.schedule.base": ("Schedule",),
        "repro.schedule.exhaustive": (
            "all_legal_orders",
            "count_legal_orders",
        ),
        "repro.schedule.hierarchical": ("HierarchicalTiledSchedule",),
        "repro.schedule.lex": (
            "InterchangedSchedule",
            "LexicographicSchedule",
        ),
        "repro.schedule.random_legal": (
            "random_legal_order",
            "sample_legal_orders",
        ),
        "repro.schedule.registry": ("SCHEDULES", "build_schedule"),
        "repro.schedule.skew": ("SkewedSchedule", "skew_matrix_2d"),
        "repro.schedule.tiling": ("TiledSchedule", "required_skew"),
        "repro.schedule.wavefront": ("WavefrontSchedule",),
    },
)
