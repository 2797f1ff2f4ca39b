"""OV-directed storage mapping (Sections 4.1–4.3), in any dimension.

Given an occupancy vector ``ov`` over an ISG, the mapping is

    SM(q) = mv . q + shift + modterm

Let ``g = gcd(ov)`` and ``u = ov / g`` the primitive direction.  A
unimodular completion ``U`` of ``u`` (see
:func:`repro.util.intmath.unimodular_completion`) satisfies
``U @ u = (1, 0, ..., 0)``; therefore for ``y = U @ q``:

- rows ``1..d-1`` of ``U`` are invariant along ``u`` — they are the
  (d-1)-dimensional analogue of the paper's perpendicular mapping vector;
- row ``0`` advances by exactly 1 per step of ``u``, so
  ``y0 mod g`` is the storage class along a non-prime OV (the modterm).

Two points are storage-equivalent iff they differ by a multiple of ``ov``,
i.e. ``y1..y(d-1)`` agree and ``y0`` agrees mod ``g`` — exactly the tuple
this mapping linearises.  The perpendicular coordinates are allocated over
their bounding box on the ISG (what generated code would allocate), and
folded once into one affine form ``mvp . q - lo`` of extent
``L = perpendicular_size``.

In two dimensions this is the paper's construction.  For ``ov = (i, j)``
the completion's rows are the Bezout functional ``beta`` (``beta . u ==
1``, from :func:`repro.util.intmath.extended_gcd`) and ``mvp = (-j, i) /
g``, for every OV except ``(-k, 0)``, whose perpendicular row comes out
as ``(0, 1)`` instead of ``(0, -1)`` (the same partition, mirrored
addresses; no search produces such an OV, since it is lexicographically
negative).

- **Prime OV** (``g == 1``): ``SM(q) = mvp . q - lo``.  Two points ``ov``
  apart map to the same location (``ov . mvp == 0``); by Bezout the image
  hits consecutive integers, so with ``lo = min(mvp . q)`` over the ISG
  the buffer is dense and its size is the projection count of Figure 6.

- **Non-prime OV** (``g > 1``): lattice points *along* the OV fall into
  ``g`` distinct storage classes that ``mvp`` alone cannot separate
  (Section 4.2, Figure 5).  The class is ``beta . q mod g``, and the
  classes are laid out either

  * ``interleaved`` — ``SM(q) = g*(mvp . q - lo) + (beta . q mod g)``
    (for the paper's 5-point-stencil example ``ov = (2, 0)`` this is
    exactly ``(0,2) . q + (q1 mod 2)``), or
  * ``consecutive`` — ``SM(q) = (mvp . q - lo) + (beta . q mod g)*L``
    (the paper's ``(0,1) . q + (q1 mod 2)*L``).

Both layouts allocate ``g * L`` locations; they differ in spatial locality
(interleaving keeps the classes in the same cache lines, the consecutive
layout keeps each class unit-stride), which is precisely the distinction
the paper's "OV-Mapped" vs "OV-Mapped Interleaved" measurements probe.
Either way the address is ``mapping_vector . q + shift + (class_row . q
mod g) * class_stride``: the layout only scales the affine part and picks
the class stride.
"""

from __future__ import annotations

from typing import Sequence

from repro.mapping.base import StorageMapping
from repro.mapping.expr import Const, Expr, Mod, OpTally, affine
from repro.util.intmath import unimodular_completion, vector_gcd
from repro.util.polyhedron import Polytope
from repro.util.vectors import as_vector, dot, is_zero

__all__ = ["OVMapping"]


class OVMapping(StorageMapping):
    """Storage mapping directed by an occupancy vector over an ISG."""

    def __init__(
        self,
        ov: Sequence[int],
        isg: Polytope,
        layout: str = "interleaved",
    ):
        ov = as_vector(ov)
        if is_zero(ov):
            raise ValueError("the zero vector cannot direct storage reuse")
        if len(ov) != isg.dim:
            raise ValueError("OV and ISG dimensionality mismatch")
        if layout not in ("interleaved", "consecutive"):
            raise ValueError(f"unknown layout {layout!r}")
        self.dim = len(ov)
        self._ov = ov
        self._layout = layout
        g = vector_gcd(ov)
        self._g = g
        completion = unimodular_completion(tuple(c // g for c in ov))
        self._class_row: tuple[int, ...] = tuple(completion[0])
        # Fold the perpendicular rows, allocated row-major over their
        # bounding box, into one affine form:
        # sum_k stride_k * (row_k . q - lo_k) = coeffs . q + constant.
        coeffs = [0] * self.dim
        constant = 0
        stride = 1
        for row in reversed(completion[1:]):
            lo, hi = isg.extent(row)
            for c in range(self.dim):
                coeffs[c] += stride * row[c]
            constant -= stride * lo
            stride *= hi - lo + 1
        self._perpendicular_size = stride
        # The interleaved layout scales the affine part by g so the
        # modterm can fill the gaps (Section 4.2).
        scale = g if layout == "interleaved" else 1
        self._mv: tuple[int, ...] = tuple(scale * c for c in coeffs)
        self._shift = scale * constant

    # -- identity -----------------------------------------------------------

    @property
    def ov(self) -> tuple[int, ...]:
        return self._ov

    @property
    def gcd(self) -> int:
        """Number of storage classes along the OV (1 for a prime OV)."""
        return self._g

    @property
    def layout(self) -> str:
        return self._layout

    @property
    def mapping_vector(self) -> tuple[int, ...]:
        """The ``mv`` actually used in the dot product (layout-dependent).

        Prime OVs and the consecutive layout use the primitive
        perpendicular; the interleaved layout scales it by ``gcd``.
        """
        return self._mv

    @property
    def shift(self) -> int:
        return self._shift

    @property
    def class_row(self) -> tuple[int, ...]:
        """The functional whose value mod ``gcd`` is the storage class
        (the paper's ``beta`` in 2-D, the completion's first row)."""
        return self._class_row

    @property
    def class_stride(self) -> int:
        """Address distance between neighbouring storage classes: 1 when
        interleaved, one class block (``perpendicular_size``) when
        consecutive."""
        return 1 if self._layout == "interleaved" else self._perpendicular_size

    @property
    def perpendicular_size(self) -> int:
        """Locations per storage class (the perpendicular box volume)."""
        return self._perpendicular_size

    @property
    def size(self) -> int:
        return self._g * self._perpendicular_size

    # -- evaluation ----------------------------------------------------------

    def __call__(self, point: Sequence[int]) -> int:
        self.check_point(point)
        base = dot(self._mv, point) + self._shift
        return base + self.storage_class(point) * self.class_stride

    def storage_class(self, point: Sequence[int]) -> int:
        """Which of the ``gcd`` classes along the OV the point falls in."""
        if self._g == 1:
            return 0
        return dot(self._class_row, point) % self._g

    # -- symbolic form ---------------------------------------------------------

    def expression(self, variables: Sequence[str]) -> Expr:
        if len(variables) != self.dim:
            raise ValueError("variable list dimensionality mismatch")
        base = affine(self._mv, variables, self._shift)
        if self._g == 1:
            return base
        modterm = Mod.make(affine(self._class_row, variables, 0), Const(self._g))
        return base + modterm * self.class_stride

    def expression_with_class(self, variables: Sequence[str], cls: int) -> Expr:
        """The mod-free address expression for a fixed storage class.

        Used by the unrolling code generator: in an inner loop unrolled by
        the modterm's period, each copy's class index is a compile-time
        constant ``cls`` and the address reduces to this affine form.
        """
        if not 0 <= cls < self._g:
            raise ValueError(f"class {cls} out of range for gcd {self._g}")
        return affine(self._mv, variables, self._shift + cls * self.class_stride)

    def effective_op_cost(
        self, variables: Sequence[str] | None = None
    ) -> OpTally:
        """Cost with the modterm removed by unrolling (Section 4.2).

        Along any legal schedule's inner loop, ``beta . q mod g`` cycles
        with period ``g``; unrolling the inner loop ``g`` times turns the
        modterm into per-copy constants, so generated code pays only the
        affine part.  Prime OVs have no modterm to begin with.
        """
        if self._g == 1:
            return self.op_cost(variables)
        if variables is None:
            variables = [f"q{k}" for k in range(self.dim)]
        counts = self.expression_with_class(variables, 0).op_counts()
        # The unrolled copies still add the (now-constant) class offset.
        return OpTally(adds=counts.adds + 1, muls=counts.muls, mods=0)

    def __repr__(self) -> str:
        return (
            f"OVMapping(ov={self._ov}, layout={self._layout!r}, "
            f"size={self.size})"
        )
