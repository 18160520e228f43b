"""The reference expression evaluator, kept as a test oracle.

Walks an expression tree recursively with one whole-list operation per
node and no sharing -- the simplest correct evaluator, which
:class:`repro.proving.evaluation.Program` must match value for value.
A column query at rotation ``r`` is the column's values cyclically
shifted by ``r * rotation_factor`` positions.
"""

from __future__ import annotations

from typing import Callable

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
    """``expr`` at every one of ``ext_n`` points, ``get_column_ext``
    giving each column's values there."""
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
