"""Storage mappings: iteration point -> one-dimensional memory index.

Section 4 of the paper.  A storage mapping decides where the value produced
by each iteration lives.  Every mapping here exposes the same interface
(:class:`repro.mapping.base.StorageMapping`): evaluate on a point, report
its allocation size, and produce a symbolic address expression whose
operation count feeds the overhead model of Section 5.1.

- :mod:`repro.mapping.array` — natural row/column-major array storage
  (the fully expanded "natural" code versions).
- :mod:`repro.mapping.ov` — the paper's OV mapping, including non-prime
  OVs with interleaved or consecutive class layout, in any dimension via
  unimodular completion of the occupancy vector (in 2-D the completion is
  the paper's construction).
- :mod:`repro.mapping.padding` — the OV mapping with padded class blocks
  (the array-padding aside of Section 4).
- :mod:`repro.mapping.optimized` — schedule-dependent minimal storage
  (rolling buffer), the "storage optimized" versions of Section 5.
- :mod:`repro.mapping.expr` — the address-expression IR and op counting.
"""

from repro.util.lazy import lazy_exports

__all__ = [
    "MAPPINGS",
    "build_mapping",
    "StorageMapping",
    "OpCounts",
    "RowMajorMapping",
    "ColMajorMapping",
    "OVMapping",
    "PaddedOVMapping",
    "pad_for_cache",
    "RollingBufferMapping",
    "Expr",
    "Var",
    "Const",
    "Mod",
    "affine",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.mapping.array": ("ColMajorMapping", "RowMajorMapping"),
        "repro.mapping.base": ("OpCounts", "StorageMapping"),
        "repro.mapping.expr": ("Const", "Expr", "Mod", "Var", "affine"),
        "repro.mapping.optimized": ("RollingBufferMapping",),
        "repro.mapping.ov": ("OVMapping",),
        "repro.mapping.padding": ("PaddedOVMapping", "pad_for_cache"),
        "repro.mapping.registry": ("MAPPINGS", "build_mapping"),
    },
)
