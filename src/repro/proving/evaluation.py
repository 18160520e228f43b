"""Expression evaluation over extended evaluation domains.

The quotient (vanishing) argument needs every constraint polynomial
evaluated on the extended coset domain.  Expressions are evaluated
bottom-up with whole-array operations per AST node; a column query at
rotation ``r`` is a cyclic shift of the column's extended evaluations by
``r * (extended_n / n)`` positions.
"""

from __future__ import annotations

from typing import Callable

from repro.algebra import backend as field_backend
from repro.plonkish.expression import (
    ColumnQuery,
    Constant,
    Expression,
    Product,
    Scaled,
    Sum,
)


def evaluate_expression_ext(
    expr: Expression,
    get_column_ext: Callable[[object], list[int]],
    ext_n: int,
    rotation_factor: int,
    p: int,
) -> list[int]:
    """Evaluate ``expr`` at every point of the extended domain.

    ``get_column_ext(column)`` must return the column polynomial's
    extended-coset evaluations (length ``ext_n``).

    The active field backend may evaluate the whole tree with one
    vectorized operation per AST node (columns lifted to limb arrays
    once, rotations as cyclic array shifts); the result is identical to
    the reference recursion below.
    """
    vectorized = field_backend.active().eval_expression_ext(
        expr, get_column_ext, ext_n, rotation_factor, p
    )
    if vectorized is not None:
        return vectorized
    if isinstance(expr, Constant):
        return [expr.value % p] * ext_n
    if isinstance(expr, ColumnQuery):
        evals = get_column_ext(expr.column)
        shift = (expr.rotation * rotation_factor) % ext_n
        if shift == 0:
            return list(evals)
        return evals[shift:] + evals[:shift]
    if isinstance(expr, Sum):
        left = evaluate_expression_ext(expr.left, get_column_ext, ext_n, rotation_factor, p)
        right = evaluate_expression_ext(expr.right, get_column_ext, ext_n, rotation_factor, p)
        return [(a + b) % p for a, b in zip(left, right)]
    if isinstance(expr, Product):
        left = evaluate_expression_ext(expr.left, get_column_ext, ext_n, rotation_factor, p)
        right = evaluate_expression_ext(expr.right, get_column_ext, ext_n, rotation_factor, p)
        return [a * b % p for a, b in zip(left, right)]
    if isinstance(expr, Scaled):
        inner = evaluate_expression_ext(expr.inner, get_column_ext, ext_n, rotation_factor, p)
        s = expr.scalar % p
        return [a * s % p for a in inner]
    raise TypeError(f"unknown expression node {type(expr).__name__}")
