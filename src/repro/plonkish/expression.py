"""Gate expression AST.

Expressions are polynomials over column queries.  A *query* references
a column at a row offset ("rotation"): ``q(col, 1)`` reads the value one
row below the current one, which is how the paper's running-sum and
grand-product constraints (Equations 3 and 5) reference ``Z_{i+1}``.

Expressions support ``+``, ``-``, ``*`` (with ints or expressions) so
gate definitions read like the paper's formulas::

    gate = q_sort * ((p1 - q1) * (p1 - p1.rot(-1)))

The *degree* of an expression (each column query counts 1) determines
the size of the extended evaluation domain the prover needs; the paper's
stated goal of "low-order polynomial constraints" is measured exactly
here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.plonkish.constraint_system import Column

#: Declared upper bounds (``ConstraintSystem.bounds``): a column -- or
#: an expression object, for flags that are no column -- to the largest
#: value its constraints let it take.
Bounds = Mapping["Column | Expression", int]
#: ``(lo, hi)`` over the integers, or None for "nothing is known".
Interval = Optional[tuple[int, int]]


class Expression:
    """Base class for gate expressions."""

    __slots__ = ()

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other: "Expression | int") -> "Expression":
        return Sum(self, _coerce(other))

    def __radd__(self, other: "Expression | int") -> "Expression":
        return Sum(_coerce(other), self)

    def __sub__(self, other: "Expression | int") -> "Expression":
        return Sum(self, Scaled(_coerce(other), -1))

    def __rsub__(self, other: "Expression | int") -> "Expression":
        return Sum(_coerce(other), Scaled(self, -1))

    def __mul__(self, other: "Expression | int") -> "Expression":
        if isinstance(other, int):
            return Scaled(self, other)
        return Product(self, other)

    def __rmul__(self, other: "Expression | int") -> "Expression":
        return self.__mul__(other)

    def __neg__(self) -> "Expression":
        return Scaled(self, -1)

    # -- analysis -----------------------------------------------------------

    def degree(self) -> int:
        raise NotImplementedError

    def evaluate(
        self,
        query_fn: Callable[["Column", int], int],
        p: int,
    ) -> int:
        """Evaluate with ``query_fn(column, rotation) -> int`` resolving
        column references (modulo p)."""
        raise NotImplementedError

    def upper_bound(self, bounds: Bounds) -> int | None:
        """The proven upper bound of this expression: ``hi`` such that
        it evaluates into ``[0, hi]`` on every row where the declared
        ``bounds`` of its columns hold, or None when a column has no
        declared bound or the value may be negative (in the field: a
        huge one).  Interval arithmetic over the integers; a bound of
        ``p`` or more is vacuous, not wrong."""
        interval = self.interval(bounds)
        if interval is None or interval[0] < 0:
            return None
        return interval[1]

    def interval(self, bounds: Bounds) -> Interval:
        """``(lo, hi)`` containing the integer value of this expression
        when every column query lies in ``[0, its declared bound]``.  An
        expression declared as a whole takes its declaration."""
        hi = bounds.get(self)
        return (0, hi) if hi is not None else self._interval(bounds)

    def _interval(self, bounds: Bounds) -> Interval:
        raise NotImplementedError

    def nodes(self) -> Iterator["Expression"]:
        """Every node of the tree, a shared subtree once per use."""
        stack: list[Expression] = [self]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (Sum, Product)):
                stack += (node.left, node.right)
            elif isinstance(node, Scaled):
                stack.append(node.inner)

    def queries(self) -> set[tuple["Column", int]]:
        """All (column, rotation) pairs referenced."""
        return {
            (node.column, node.rotation)
            for node in self.nodes()
            if isinstance(node, ColumnQuery)
        }


def _coerce(value: "Expression | int") -> Expression:
    if isinstance(value, Expression):
        return value
    if isinstance(value, int):
        return Constant(value)
    raise TypeError(f"cannot use {type(value).__name__} in an expression")


class Constant(Expression):
    """A literal field constant."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def degree(self) -> int:
        return 0

    def evaluate(self, query_fn, p):
        return self.value % p

    def _interval(self, bounds):
        return (self.value, self.value)

    def __repr__(self) -> str:
        return f"{self.value}"


class ColumnQuery(Expression):
    """A reference to ``column`` at the current row plus ``rotation``."""

    __slots__ = ("column", "rotation")

    def __init__(self, column: "Column", rotation: int = 0):
        self.column = column
        self.rotation = rotation

    def degree(self) -> int:
        return 1

    def evaluate(self, query_fn, p):
        return query_fn(self.column, self.rotation) % p

    def _interval(self, bounds):
        hi = bounds.get(self.column)
        return None if hi is None else (0, hi)

    def __repr__(self) -> str:
        if self.rotation:
            return f"{self.column.name}@{self.rotation:+d}"
        return self.column.name


class Sum(Expression):
    __slots__ = ("left", "right")

    def __init__(self, left: Expression, right: Expression):
        self.left = left
        self.right = right

    def degree(self) -> int:
        return max(self.left.degree(), self.right.degree())

    def evaluate(self, query_fn, p):
        return (self.left.evaluate(query_fn, p) + self.right.evaluate(query_fn, p)) % p

    def _interval(self, bounds):
        left, right = self.left.interval(bounds), self.right.interval(bounds)
        if left is None or right is None:
            return None
        return (left[0] + right[0], left[1] + right[1])

    def __repr__(self) -> str:
        return f"({self.left} + {self.right})"


class Product(Expression):
    __slots__ = ("left", "right")

    def __init__(self, left: Expression, right: Expression):
        self.left = left
        self.right = right

    def degree(self) -> int:
        return self.left.degree() + self.right.degree()

    def evaluate(self, query_fn, p):
        lhs = self.left.evaluate(query_fn, p)
        if lhs == 0:
            return 0
        return lhs * self.right.evaluate(query_fn, p) % p

    def _interval(self, bounds):
        left, right = self.left.interval(bounds), self.right.interval(bounds)
        if left is None or right is None:
            return None
        corners = [a * b for a in left for b in right]
        return (min(corners), max(corners))

    def __repr__(self) -> str:
        return f"{self.left} * {self.right}"


class Scaled(Expression):
    """``scalar * inner`` -- multiplication by a constant (degree-free)."""

    __slots__ = ("inner", "scalar")

    def __init__(self, inner: Expression, scalar: int):
        self.inner = inner
        self.scalar = scalar

    def degree(self) -> int:
        return self.inner.degree()

    def evaluate(self, query_fn, p):
        return self.inner.evaluate(query_fn, p) * self.scalar % p

    def _interval(self, bounds):
        inner = self.inner.interval(bounds)
        if inner is None:
            return None
        lo, hi = inner[0] * self.scalar, inner[1] * self.scalar
        return (lo, hi) if lo <= hi else (hi, lo)

    def __repr__(self) -> str:
        return f"{self.scalar} * ({self.inner})"
