"""A small loop intermediate representation.

The paper's technique applies to *regular loops*: perfectly nested loops
whose single assignment statement(s) read and write arrays through uniform
affine subscripts, producing temporary values.  This package models exactly
that class:

- :mod:`repro.ir.affine` — affine index expressions over loop indices and
  symbolic size parameters;
- :mod:`repro.ir.ref` — array references with affine subscripts;
- :mod:`repro.ir.stmt` — assignment statements ``A[f(q)] = op(B[g(q)]...)``;
- :mod:`repro.ir.loop` — perfect loop nests with (symbolic) bounds;
- :mod:`repro.ir.program` — a program: loop nest + body + array roles
  (input / output / temporary), the unit all analyses and executors take.
"""

from repro.util.lazy import lazy_exports

__all__ = [
    "AffineExpr",
    "ArrayRef",
    "Assignment",
    "LoopNest",
    "ArrayDecl",
    "Program",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.ir.affine": ("AffineExpr",),
        "repro.ir.loop": ("LoopNest",),
        "repro.ir.program": ("ArrayDecl", "Program"),
        "repro.ir.ref": ("ArrayRef",),
        "repro.ir.stmt": ("Assignment",),
    },
)
