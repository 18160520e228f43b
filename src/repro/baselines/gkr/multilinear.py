"""Multilinear extensions over the scalar field."""

from __future__ import annotations

from repro.algebra.field import Field, SCALAR_FIELD


class MultilinearPoly:
    """The multilinear extension of a value table over {0,1}^k.

    Values are stored dense, little-endian in the variable index (bit 0
    of the table index is variable x_0).
    """

    __slots__ = ("field", "k", "values")

    def __init__(self, values: list[int], field: Field = SCALAR_FIELD):
        n = len(values)
        if n == 0 or n & (n - 1):
            raise ValueError("table size must be a nonzero power of two")
        self.field = field
        self.k = n.bit_length() - 1
        self.values = [v % field.p for v in values]

    def evaluate(self, point: list[int]) -> int:
        """Evaluate at an arbitrary field point by successive folding."""
        if len(point) != self.k:
            raise ValueError(f"need {self.k} coordinates, got {len(point)}")
        p = self.field.p
        table = self.values
        for r in point:
            half = len(table) // 2
            r %= p
            table = [
                (table[2 * i] + r * (table[2 * i + 1] - table[2 * i])) % p
                for i in range(half)
            ]
        return table[0]

    def fold_first(self, r: int) -> "MultilinearPoly":
        """Bind the first variable to ``r``."""
        p = self.field.p
        table = self.values
        half = len(table) // 2
        folded = [
            (table[2 * i] + r * (table[2 * i + 1] - table[2 * i])) % p
            for i in range(half)
        ]
        return MultilinearPoly(folded, self.field)


def eq_weights(point: list[int], field: Field = SCALAR_FIELD) -> list[int]:
    """The table ``eq(point, x)`` for all boolean ``x`` -- i.e. the
    Lagrange-basis weights of the multilinear extension at ``point``.

    ``eq(z, x) = prod(z_i x_i + (1 - z_i)(1 - x_i))``; computed in
    O(2^k) by doubling.
    """
    p = field.p
    table = [1]
    for z in point:
        z %= p
        size = len(table)
        nxt = [0] * (size * 2)
        for i, w in enumerate(table):
            nxt[i] = w * (1 - z) % p
            nxt[i + size] = w * z % p
        table = nxt
    return table


def eq_eval(a: list[int], b: list[int], field: Field = SCALAR_FIELD) -> int:
    """eq(a, b) at two arbitrary points."""
    if len(a) != len(b):
        raise ValueError("dimension mismatch")
    p = field.p
    acc = 1
    for x, y in zip(a, b):
        acc = acc * ((x * y + (1 - x) * (1 - y)) % p) % p
    return acc
