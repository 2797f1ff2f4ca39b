"""Table 1 — 5-point stencil temporary storage requirements.

===================  ==========
version              storage
===================  ==========
Natural              ``T * L``
OV-Mapped            ``2 L``
Storage Optimized    ``L + 3``
===================  ==========

Each formula is checked against the *actual allocation* of the mappings
the executable versions use — the table is not transcribed, it is
recomputed from the same objects the simulator runs.
"""

from __future__ import annotations

from repro.codes import get_versions
from repro.experiments.harness import ExperimentResult

TITLE = "Table 1: 5-point stencil storage"


def run(mode: str = "quick") -> ExperimentResult:
    t_steps, length = (64, 4096) if mode == "full" else (8, 64)
    sizes = {"T": t_steps, "L": length}
    versions = get_versions("stencil5")
    result = ExperimentResult("table1", TITLE, mode)

    natural = versions["natural"].mapping(sizes).size
    ov = versions["ov"].mapping(sizes).size
    ov_inter = versions["ov-interleaved"].mapping(sizes).size
    optimized = versions["storage-optimized"].mapping(sizes).size

    result.tables["storage"] = [
        ["version", "paper formula", "paper value", "allocated"],
        ["Natural", "T*L", str(t_steps * length), str(natural)],
        ["OV-Mapped", "2L", str(2 * length), str(ov)],
        ["OV-Mapped Interleaved", "2L", str(2 * length), str(ov_inter)],
        ["Storage Optimized", "L+3", str(length + 3), str(optimized)],
    ]

    result.claim("natural allocates T*L", lambda: natural == t_steps * length)
    result.claim("OV-mapped allocates 2L", lambda: ov == 2 * length)
    result.claim(
        "interleaved OV also allocates 2L", lambda: ov_inter == 2 * length
    )
    result.claim(
        "storage-optimized allocates L+3", lambda: optimized == length + 3
    )
    return result
