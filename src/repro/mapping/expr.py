"""Address-expression IR with operation counting and code emission.

The overhead argument of Sections 4 and 5.1 is an *operation count*
argument: a natural d-dimensional array reference costs ``(d-1)`` multiplies
and ``(d-1)`` adds; an OV-based mapping costs at most one multiply and two
adds more; and constant folding often removes the multiplies entirely (the
Figure 1(b) mapping ``(-1,1).q + n`` is one subtraction and one addition).

To make those claims measurable rather than asserted, storage mappings
produce their address computation as a small expression tree.  The tree is
*simplified on construction* (mul by 0/1, add of 0, constant folding) so
that :meth:`Expr.op_counts` reports what a reasonable compiler would emit,
and :meth:`Expr.to_python` / :meth:`Expr.to_c` emit the exact source the
code generators paste into loop bodies.

:func:`affine_mod_form` reads a tree back as numbers: every mapping
family's expression is an affine part plus scaled residues of affine
parts, which is what the array address tracer evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Union

__all__ = [
    "Expr",
    "Var",
    "Const",
    "Add",
    "Mul",
    "Mod",
    "OpTally",
    "affine",
    "AffineModForm",
    "ModTerm",
    "affine_mod_form",
]


@dataclass(frozen=True)
class OpTally:
    """Counts of arithmetic operations in an address expression."""

    adds: int = 0
    muls: int = 0
    mods: int = 0

    def __add__(self, other: "OpTally") -> "OpTally":
        return OpTally(
            self.adds + other.adds,
            self.muls + other.muls,
            self.mods + other.mods,
        )

    @property
    def total(self) -> int:
        return self.adds + self.muls + self.mods


class Expr:
    """Base class for address expressions (immutable)."""

    def evaluate(self, env: Mapping[str, int]) -> int:
        raise NotImplementedError

    def op_counts(self) -> OpTally:
        raise NotImplementedError

    def to_python(self) -> str:
        raise NotImplementedError

    def to_c(self) -> str:
        # The generated grammar is common to both languages for leaves;
        # composite nodes override to recurse through ``to_c`` (Python's
        # floor-``%`` and C's truncating ``%`` differ on negative
        # operands, so a nested Mod must not be printed via to_python).
        return self.to_python()

    # Operator sugar keeps mapping construction readable.
    def __add__(self, other: "Expr | int") -> "Expr":
        return Add.make(self, _coerce(other))

    def __radd__(self, other: int) -> "Expr":
        return Add.make(_coerce(other), self)

    def __mul__(self, other: "Expr | int") -> "Expr":
        return Mul.make(self, _coerce(other))

    def __rmul__(self, other: int) -> "Expr":
        return Mul.make(_coerce(other), self)

    def __mod__(self, other: int) -> "Expr":
        return Mod.make(self, _coerce(other))


@dataclass(frozen=True)
class Var(Expr):
    """A loop index variable."""

    name: str

    def evaluate(self, env: Mapping[str, int]) -> int:
        return env[self.name]

    def op_counts(self) -> OpTally:
        return OpTally()

    def to_python(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const(Expr):
    """An integer constant (sizes and shifts are folded in at build time)."""

    value: int

    def evaluate(self, env: Mapping[str, int]) -> int:
        return self.value

    def op_counts(self) -> OpTally:
        return OpTally()

    def to_python(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr

    @staticmethod
    def make(left: Expr, right: Expr) -> Expr:
        if isinstance(left, Const) and isinstance(right, Const):
            return Const(left.value + right.value)
        if isinstance(left, Const) and left.value == 0:
            return right
        if isinstance(right, Const) and right.value == 0:
            return left
        return Add(left, right)

    def evaluate(self, env: Mapping[str, int]) -> int:
        return self.left.evaluate(env) + self.right.evaluate(env)

    def op_counts(self) -> OpTally:
        return self.left.op_counts() + self.right.op_counts() + OpTally(adds=1)

    def to_python(self) -> str:
        right = self.right
        if isinstance(right, Const) and right.value < 0:
            return f"{self.left.to_python()} - {-right.value}"
        if isinstance(right, Mul) and isinstance(right.left, Const) and right.left.value == -1:
            return f"{self.left.to_python()} - {right.right.to_python()}"
        return f"{self.left.to_python()} + {right.to_python()}"

    def to_c(self) -> str:
        right = self.right
        if isinstance(right, Const) and right.value < 0:
            return f"{self.left.to_c()} - {-right.value}"
        if isinstance(right, Mul) and isinstance(right.left, Const) and right.left.value == -1:
            return f"{self.left.to_c()} - {right.right.to_c()}"
        return f"{self.left.to_c()} + {right.to_c()}"


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr

    @staticmethod
    def make(left: Expr, right: Expr) -> Expr:
        if isinstance(right, Const) and not isinstance(left, Const):
            left, right = right, left  # canonical: constant first
        if isinstance(left, Const):
            if left.value == 0:
                return Const(0)
            if left.value == 1:
                return right
            if isinstance(right, Const):
                return Const(left.value * right.value)
            if left.value == -1:
                # Negation is an add-class operation, not a multiply; keep
                # the node (codegen prints "- x") but see op_counts below.
                return Mul(left, right)
        return Mul(left, right)

    def evaluate(self, env: Mapping[str, int]) -> int:
        return self.left.evaluate(env) * self.right.evaluate(env)

    def op_counts(self) -> OpTally:
        inner = self.left.op_counts() + self.right.op_counts()
        if isinstance(self.left, Const):
            if self.left.value == -1:
                return inner  # negation folds into the surrounding add/sub
            if abs(self.left.value) in (2, 4, 8):
                # Small power-of-two scales fold into addressing modes
                # (x86 SIB) or a single shift: charge an add-class op.
                return inner + OpTally(adds=1)
        return inner + OpTally(muls=1)

    def to_python(self) -> str:
        if isinstance(self.left, Const) and self.left.value == -1:
            return f"-{_parenthesised(self.right)}"
        return f"{_parenthesised(self.left)} * {_parenthesised(self.right)}"

    def to_c(self) -> str:
        if isinstance(self.left, Const) and self.left.value == -1:
            return f"-{_parenthesised(self.right, lang='c')}"
        return (
            f"{_parenthesised(self.left, lang='c')} * "
            f"{_parenthesised(self.right, lang='c')}"
        )


@dataclass(frozen=True)
class Mod(Expr):
    left: Expr
    right: Expr

    @staticmethod
    def make(left: Expr, right: Expr) -> Expr:
        if not isinstance(right, Const) or right.value <= 0:
            raise ValueError("modulus must be a positive constant")
        if right.value == 1:
            return Const(0)
        if isinstance(left, Const):
            return Const(left.value % right.value)
        return Mod(left, right)

    def evaluate(self, env: Mapping[str, int]) -> int:
        return self.left.evaluate(env) % self.right.evaluate(env)

    def op_counts(self) -> OpTally:
        return self.left.op_counts() + self.right.op_counts() + OpTally(mods=1)

    def to_python(self) -> str:
        return f"{_parenthesised(self.left)} % {self.right.to_python()}"

    def to_c(self) -> str:
        # Python's ``%`` floors, C's truncates toward zero: they disagree
        # exactly when the left operand is negative.  The emitted C uses
        # the sign-safe Euclidean form (modulus is a positive constant by
        # construction) so compiled code matches the interpreter bit for
        # bit for every operand sign; compilers fold the second ``%`` away
        # whenever they can prove the operand non-negative.
        m = self.right.to_c()
        return f"(({_parenthesised(self.left, lang='c')} % {m} + {m}) % {m})"


def affine(
    coefficients: Sequence[int],
    variables: Sequence[str],
    constant: int = 0,
) -> Expr:
    """Build the simplified expression ``sum(c_k * var_k) + constant``.

    This is the ``mv . q + shift`` core of every storage mapping; the
    simplifying constructors drop zero terms and unit multiplies so the op
    count matches the paper's hand counts (e.g. Figure 1(b)).
    """
    if len(coefficients) != len(variables):
        raise ValueError("coefficient/variable length mismatch")
    expr: Expr = Const(constant)
    # Accumulate non-zero terms left-to-right after the leading term so the
    # printed form reads like the paper's formulas.
    terms: list[Expr] = []
    for c, name in zip(coefficients, variables):
        if c != 0:
            terms.append(Mul.make(Const(c), Var(name)))
    if not terms:
        return Const(constant)
    expr = terms[0]
    for t in terms[1:]:
        expr = Add.make(expr, t)
    return Add.make(expr, Const(constant))


@dataclass(frozen=True)
class ModTerm:
    """``scale * ((linear . q + offset) mod modulus)``."""

    scale: int
    linear: tuple[int, ...]
    offset: int
    modulus: int


@dataclass(frozen=True)
class AffineModForm:
    """``linear . q + constant + sum(terms)``, each term a :class:`ModTerm`.

    The numeric shape of every storage mapping's address expression:
    natural arrays are affine, OV mappings add one scaled residue per
    non-prime OV (Section 4.2), and the rolling buffer is one residue.
    """

    linear: tuple[int, ...]
    constant: int
    terms: tuple[ModTerm, ...] = ()

    def evaluate(self, point: Sequence[int]) -> int:
        """The value at one point (``mod`` floors, as Python's ``%``)."""
        value = self.constant + sum(a * c for a, c in zip(self.linear, point))
        for t in self.terms:
            residue = t.offset + sum(b * c for b, c in zip(t.linear, point))
            value += t.scale * (residue % t.modulus)
        return value


def affine_mod_form(expr: Expr, variables: Sequence[str]) -> AffineModForm:
    """Decompose ``expr`` over ``variables`` into an :class:`AffineModForm`.

    Raises ``ValueError`` for anything outside that form: a product of
    two non-constant factors, a ``Mod`` whose operand contains a ``Mod``,
    or a variable not in ``variables``.
    """
    index = {name: k for k, name in enumerate(variables)}
    zero = (0,) * len(variables)

    def scaled(form: AffineModForm, k: int) -> AffineModForm:
        terms = tuple(
            ModTerm(k * t.scale, t.linear, t.offset, t.modulus)
            for t in form.terms
        )
        return AffineModForm(
            tuple(k * a for a in form.linear),
            k * form.constant,
            terms if k else (),
        )

    def walk(e: Expr) -> AffineModForm:
        if isinstance(e, Const):
            return AffineModForm(zero, e.value)
        if isinstance(e, Var):
            if e.name not in index:
                raise ValueError(f"unknown variable {e.name!r}")
            linear = list(zero)
            linear[index[e.name]] = 1
            return AffineModForm(tuple(linear), 0)
        if isinstance(e, Add):
            left, right = walk(e.left), walk(e.right)
            return AffineModForm(
                tuple(a + b for a, b in zip(left.linear, right.linear)),
                left.constant + right.constant,
                left.terms + right.terms,
            )
        if isinstance(e, Mul):
            left, right = walk(e.left), walk(e.right)
            if _is_constant(left):
                return scaled(right, left.constant)
            if _is_constant(right):
                return scaled(left, right.constant)
            raise ValueError(
                f"product of two non-constant factors: {e.to_python()}"
            )
        if isinstance(e, Mod):
            inner, modulus = walk(e.left), walk(e.right)
            if inner.terms:
                raise ValueError(
                    f"mod of an expression with a mod: {e.to_python()}"
                )
            if not _is_constant(modulus) or modulus.constant <= 0:
                raise ValueError(
                    f"modulus is not a positive constant: {e.to_python()}"
                )
            term = ModTerm(1, inner.linear, inner.constant, modulus.constant)
            return AffineModForm(zero, 0, (term,))
        raise ValueError(f"not an address expression: {e!r}")

    return walk(expr)


def _is_constant(form: AffineModForm) -> bool:
    return not form.terms and not any(form.linear)


def _coerce(value: Union[Expr, int]) -> Expr:
    if isinstance(value, Expr):
        return value
    return Const(int(value))


def _parenthesised(e: Expr, lang: str = "python") -> str:
    text = e.to_c() if lang == "c" else e.to_python()
    if isinstance(e, (Var, Const)):
        return text
    return f"({text})"
