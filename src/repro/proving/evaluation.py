"""The constraint identity's expressions as one straight-line program.

Every expression the identity reads -- gate constraints, lookup inputs
and tables, shuffle groups -- is compiled once per verifying key into a
:class:`Program`: a list of vector operations over interned ``(column,
rotation)`` leaves, in the manner of halo2's ``GraphEvaluator``: leaves
fetched once, products shared across every tree, each ``Sum`` /
``Scaled`` / ``Constant`` chain one linear operation with one reduction
(DESIGN.md 5e).

One program serves every kind of vector: each n-point part of the
extended coset for the quotient, the usable rows for the prover's
lookup and grand-product columns, and length-1 vectors at ``x`` for the
verifier.  A gate therefore cannot mean one thing to the prover and
another to the verifier.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, mul, sub
from typing import Callable, Iterable

from repro.plonkish.constraint_system import (
    Column,
    ConstraintSystem,
    LookupArgument,
)
from repro.plonkish.expression import (
    ColumnQuery,
    Constant,
    Expression,
    Product,
    Scaled,
    Sum,
)

#: ``Leaf(column, rotation)``: the column's values at that rotation, one
#: per point the program runs over.
Leaf = Callable[[Column, int], list[int]]

#: A linear form ``const + sum coef * slot`` over computed slots.
_Form = tuple[int, dict[int, int]]


def rotated(values: list[int], shift: int) -> list[int]:
    """``values`` cyclically shifted left by ``shift`` positions -- the
    list itself when the shift is a whole turn."""
    shift %= len(values)
    return values[shift:] + values[:shift] if shift else values


def gate_expressions(cs: ConstraintSystem) -> list[Expression]:
    """Every gate constraint, in the identity's ``y``-fold order."""
    return [c for gate in cs.gates for c in gate.constraints]


def argument_expressions(
    cs: ConstraintSystem, arguments: list[LookupArgument]
) -> list[Expression]:
    """Every other expression the identity reads: per lookup argument
    its table and its lookups' inputs, and the shuffle groups."""
    out: list[Expression] = []
    for argument in arguments:
        out += argument.table
        for lookup in argument.lookups:
            out += lookup.inputs
    for shuffle in cs.shuffles:
        for group in shuffle.input_groups + shuffle.table_groups:
            out += group
    return out


class Program:
    """Expressions compiled to a straight-line vector program over the
    prime field ``p``.

    Slot ``i`` holds the result of operation ``i``; every operation
    reads only earlier slots.  The operations are

    - ``("leaf", column, rotation)``: a column at a rotation;
    - ``("mul", a, b)``: the product of two slots;
    - ``("lin", const, ((slot, coef), ...))``: ``const + sum coef *
      slot``, reduced once, coefficients as signed representatives so a
      small negative scalar stays a small int;
    - ``("const", value)``: a constant vector.
    """

    def __init__(self, expressions: Iterable[Expression], p: int):
        self.p = p
        self.ops: list[tuple] = []
        self._operands: list[tuple[int, ...]] = []
        self._interned: dict[tuple, int] = {}
        self._roots: dict[Expression, int] = {}
        #: slot -> how many times its expression was given, i.e. read
        self._reads: dict[int, int] = {}
        forms: dict[Expression, _Form] = {}
        for expr in expressions:
            if expr not in self._roots:
                self._roots[expr] = self._materialize(self._form(expr, forms))
            slot = self._roots[expr]
            self._reads[slot] = self._reads.get(slot, 0) + 1
        # A vector can go after the operation that reads it last (a
        # compiled expression's only once it has been read; a rotation-0
        # leaf is the caller's own list and stays).
        self._last_use = {
            operand: slot
            for slot, operands in enumerate(self._operands)
            for operand in operands
        }
        self._frees: list[list[int]] = [[] for _ in self.ops]
        for operand, slot in self._last_use.items():
            self._frees[slot].append(operand)
        self._shared = {
            slot for slot, op in enumerate(self.ops) if op[0] == "leaf" and not op[2]
        }

    # -- compilation ------------------------------------------------------

    def _intern(self, op: tuple, operands: tuple[int, ...] = ()) -> int:
        slot = self._interned.get(op)
        if slot is None:
            slot = self._interned[op] = len(self.ops)
            self.ops.append(op)
            self._operands.append(operands)
        return slot

    def _signed(self, value: int) -> int:
        value %= self.p
        return value - self.p if value > self.p // 2 else value

    def _scaled(self, form: _Form, scalar: int) -> _Form:
        const, terms = form
        scaled = {}
        for slot, coef in terms.items():
            coef = self._signed(coef * scalar)
            if coef:
                scaled[slot] = coef
        return const * scalar % self.p, scaled

    def _form(self, node: Expression, memo: dict[Expression, _Form]) -> _Form:
        """``node`` as a linear form over slots, compiling the leaves
        and products beneath it (memoized per node object)."""
        form = memo.get(node)
        if form is not None:
            return form
        if isinstance(node, Constant):
            form = (node.value % self.p, {})
        elif isinstance(node, ColumnQuery):
            form = (0, {self._intern(("leaf", node.column, node.rotation)): 1})
        elif isinstance(node, Scaled):
            form = self._scaled(self._form(node.inner, memo), node.scalar)
        elif isinstance(node, Sum):
            const, terms = self._form(node.left, memo)
            right_const, right_terms = self._form(node.right, memo)
            terms = dict(terms)
            for slot, coef in right_terms.items():
                coef = self._signed(terms.get(slot, 0) + coef)
                if coef:
                    terms[slot] = coef
                else:
                    terms.pop(slot, None)
            form = ((const + right_const) % self.p, terms)
        elif isinstance(node, Product):
            left = self._form(node.left, memo)
            right = self._form(node.right, memo)
            if not left[1]:
                form = self._scaled(right, left[0])
            elif not right[1]:
                form = self._scaled(left, right[0])
            else:
                a, a_coef = self._factor(left)
                b, b_coef = self._factor(right)
                a, b = min(a, b), max(a, b)
                product = self._intern(("mul", a, b), (a, b))
                form = (0, {product: self._signed(a_coef * b_coef)})
        else:
            raise TypeError(f"unknown expression node {type(node).__name__}")
        memo[node] = form
        return form

    def _factor(self, form: _Form) -> tuple[int, int]:
        """``form`` as ``(slot, coef)`` with ``form == coef * slot``."""
        const, terms = form
        if not const and len(terms) == 1:
            ((slot, coef),) = terms.items()
            return slot, coef
        return self._materialize(form), 1

    def _materialize(self, form: _Form) -> int:
        """The slot holding ``form``, compiling a linear op if needed."""
        const, terms = form
        if not terms:
            return self._intern(("const", const))
        if not const and len(terms) == 1:
            ((slot, coef),) = terms.items()
            if coef == 1:
                return slot
        items = tuple(sorted(terms.items()))
        return self._intern(("lin", const, items), tuple(slot for slot, _ in items))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Program)
            and (self.p, self.ops, self._roots) == (other.p, other.ops, other._roots)
        )

    # -- introspection ----------------------------------------------------

    @property
    def roots(self) -> list[Expression]:
        """The expressions compiled, in first-given order."""
        return list(self._roots)

    def slot(self, expr: Expression) -> int:
        """The slot holding ``expr``: a compiled expression, or any
        query of a compiled leaf."""
        slot = self._roots.get(expr)
        if slot is None and isinstance(expr, ColumnQuery):
            slot = self._interned.get(("leaf", expr.column, expr.rotation))
        if slot is None:
            raise KeyError(f"expression {expr!r} is not in the program")
        return slot

    def leaves(self) -> list[tuple[Column, int]]:
        """Every ``(column, rotation)`` the compiled expressions read."""
        return [(op[1], op[2]) for op in self.ops if op[0] == "leaf"]

    def counts(self) -> dict[str, int]:
        """Operations by kind: ``leaves``, ``products`` and ``linear``
        (constants included)."""
        out = {"leaves": 0, "products": 0, "linear": 0}
        for op in self.ops:
            out[{"leaf": "leaves", "mul": "products"}.get(op[0], "linear")] += 1
        return out

    # -- execution --------------------------------------------------------

    def run(
        self,
        leaf: Leaf,
        length: int,
        roots: Iterable[Expression] | None = None,
    ) -> Callable[[Expression], list[int]]:
        """Evaluate the program over vectors of ``length`` points and
        return the values of an expression: ``values(expr)``.

        Operations run in order as values are asked for, and only those
        that ``roots`` (default: every compiled expression) need.  A
        value is kept until it has been read as many times as its
        expression was given to the compiler (a rotation-0 leaf, the
        caller's own list, always), so a caller that reads each
        expression as often as it was given holds one vector at a time;
        a further read computes it again.  Vectors may be the leaves'
        own lists: read them, never write them."""
        vectors: list = [None] * len(self.ops)
        needed = None
        if roots is not None:
            needed = [False] * len(self.ops)
            stack = list(map(self.slot, roots))
            while stack:
                slot = stack.pop()
                if not needed[slot]:
                    needed[slot] = True
                    stack += self._operands[slot]
        handed: set[int] = set()
        reads = dict(self._reads)  # still to come, per compiled expression
        done = 0  # operations up to here have run

        def values(expr: Expression) -> list[int]:
            nonlocal done
            slot = self.slot(expr)
            for at in range(done, slot + 1):
                if vectors[at] is None and (needed is None or needed[at]):
                    vectors[at] = self._compute(self.ops[at], vectors, leaf, length)
                for dead in self._frees[at]:
                    if dead in handed or dead not in self._reads:
                        vectors[dead] = None
            done = max(done, slot + 1)
            out = vectors[slot]
            if out is None:  # handed out before, or no requested root
                return self.run(leaf, length, roots=[expr])(expr)
            reads[slot] = reads.get(slot, 1) - 1
            if reads[slot] <= 0 and slot not in self._shared:
                if self._last_use.get(slot, -1) < done:
                    vectors[slot] = None
                else:
                    handed.add(slot)
            return out

        return values

    def _compute(self, op: tuple, vectors: list, leaf: Leaf, length: int) -> list[int]:
        """One operation over the vectors computed so far."""
        kind, p = op[0], self.p
        if kind == "leaf":
            return leaf(op[1], op[2])
        if kind == "mul":
            x, y = vectors[op[1]], vectors[op[2]]
            if x is y:
                return [a * a % p for a in x]
            return [a * b % p for a, b in zip(x, y)]
        if kind == "lin":
            return _linear(op[1], op[2], vectors, p)
        return [op[1]] * length


def _linear(const: int, terms, vectors: list, p: int) -> list[int]:
    """``const + sum coef * vectors[slot]`` over ``terms``, summed
    lazily and reduced once per point."""
    acc = None
    for slot, coef in terms:
        x = vectors[slot]
        if coef == 1:
            acc = x if acc is None else map(add, acc, x)
        elif coef == -1 and acc is not None:
            acc = map(sub, acc, x)
        else:
            term = map(mul, repeat(coef), x)
            acc = term if acc is None else map(add, acc, term)
    if const:
        return [(s + const) % p for s in acc]
    return [s % p for s in acc]

