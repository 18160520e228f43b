"""Raw coefficient-list helpers for the prover.

Coefficients are little-endian (``coeffs[i]`` multiplies ``X^i``) plain
ints; the prover's polynomials stay in that form, and its transforms
run through :mod:`repro.algebra.domain`.
"""

from __future__ import annotations

from typing import Sequence


def evaluate_coeffs(coeffs: Sequence[int], x: int, p: int) -> int:
    """Horner evaluation on a raw little-endian coefficient list."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def divide_by_linear(coeffs: Sequence[int], root: int, p: int) -> list[int]:
    """Synthetic division of a raw coefficient list by (X - root); the
    remainder is discarded."""
    n = len(coeffs)
    if n <= 1:
        return []
    quot = [0] * (n - 1)
    acc = 0
    for i in range(n - 1, 0, -1):
        acc = (acc * root + coeffs[i]) % p
        quot[i - 1] = acc
    return quot
