"""Dense univariate polynomials over a prime field.

Coefficients are stored little-endian (``coeffs[i]`` multiplies ``X^i``)
as raw ints.  The class is used at API boundaries (commitments, opening
proofs, tests); the prover's hot paths manipulate coefficient lists
directly through :mod:`repro.algebra.domain`.
"""

from __future__ import annotations

from typing import Sequence

from repro.algebra.domain import EvaluationDomain
from repro.algebra.field import Field


class Polynomial:
    """A dense polynomial with coefficients in ``field``."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Sequence[int]):
        p = field.p
        trimmed = [c % p for c in coeffs]
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        self.field = field
        self.coeffs = trimmed

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field: Field) -> "Polynomial":
        return cls(field, [])

    @classmethod
    def constant(cls, field: Field, c: int) -> "Polynomial":
        return cls(field, [c])

    @classmethod
    def monomial(cls, field: Field, degree: int, c: int = 1) -> "Polynomial":
        return cls(field, [0] * degree + [c])

    @classmethod
    def interpolate(
        cls, field: Field, xs: Sequence[int], ys: Sequence[int]
    ) -> "Polynomial":
        """Lagrange interpolation through distinct points (x_i, y_i).

        O(n^2); used for small verifier-side polynomials, not the prover.
        """
        if len(xs) != len(ys):
            raise ValueError("xs and ys must have equal length")
        p = field.p
        n = len(xs)
        if n == 0:
            return cls.zero(field)
        # full(X) = prod (X - x_j), computed once; basis_i = full / (X - x_i).
        full = [1]
        for x in xs:
            nxt = [0] * (len(full) + 1)
            for i, c in enumerate(full):
                nxt[i + 1] = (nxt[i + 1] + c) % p
                nxt[i] = (nxt[i] - c * x) % p
            full = nxt
        result = [0] * n
        denoms = []
        bases = []
        for i in range(n):
            basis = divide_by_linear(full, xs[i], p)
            denom = _eval_raw(basis, xs[i], p)
            bases.append(basis)
            denoms.append(denom)
        inv_denoms = field.batch_inv(denoms)
        for i in range(n):
            scale = ys[i] * inv_denoms[i] % p
            basis = bases[i]
            for j, c in enumerate(basis):
                result[j] = (result[j] + c * scale) % p
        return cls(field, result)

    @classmethod
    def vanishing(cls, field: Field, xs: Sequence[int]) -> "Polynomial":
        """prod (X - x_i)."""
        p = field.p
        acc = [1]
        for x in xs:
            nxt = [0] * (len(acc) + 1)
            for i, c in enumerate(acc):
                nxt[i + 1] = (nxt[i + 1] + c) % p
                nxt[i] = (nxt[i] - c * x) % p
            acc = nxt
        return cls(field, acc)

    # -- queries ----------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial reports -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, x: int) -> int:
        return _eval_raw(self.coeffs, x, self.field.p)

    def evaluate_many(self, xs: Sequence[int]) -> list[int]:
        return [self.evaluate(x) for x in xs]

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if other.field.p != self.field.p:
            raise ValueError("field mismatch")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        p = self.field.p
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % p
        return Polynomial(self.field, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        p = self.field.p
        return Polynomial(self.field, [(-c) % p for c in self.coeffs])

    def scale(self, k: int) -> "Polynomial":
        p = self.field.p
        k %= p
        return Polynomial(self.field, [c * k % p for c in self.coeffs])

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(self.field)
        n_out = len(self.coeffs) + len(other.coeffs) - 1
        # FFT multiplication once the result is large enough to pay for it.
        if n_out >= 64 and n_out <= (1 << self.field.two_adicity):
            k = max(1, (n_out - 1).bit_length())
            domain = EvaluationDomain(self.field, k)
            p = self.field.p
            ea = domain.fft(self.coeffs)
            eb = domain.fft(other.coeffs)
            prod = [x * y % p for x, y in zip(ea, eb)]
            return Polynomial(self.field, domain.ifft(prod))
        return Polynomial(self.field, _mul_schoolbook(self.coeffs, other.coeffs, self.field.p))

    def divmod(self, divisor: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Euclidean division: returns (quotient, remainder)."""
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.field.p
        rem = list(self.coeffs)
        div = divisor.coeffs
        q_len = len(rem) - len(div) + 1
        if q_len <= 0:
            return Polynomial.zero(self.field), Polynomial(self.field, rem)
        quot = [0] * q_len
        lead_inv = self.field.inv(div[-1])
        for i in range(q_len - 1, -1, -1):
            coeff = rem[i + len(div) - 1] * lead_inv % p
            quot[i] = coeff
            if coeff:
                for j, d in enumerate(div):
                    rem[i + j] = (rem[i + j] - coeff * d) % p
        return Polynomial(self.field, quot), Polynomial(self.field, rem)

    def divide_by_linear(self, root: int) -> tuple["Polynomial", int]:
        """Divide by ``(X - root)`` via synthetic division.

        Returns (quotient, remainder-value); remainder is zero iff
        ``root`` is a root.  This is the witness computation for IPA
        opening proofs.
        """
        quot = divide_by_linear(self.coeffs, root, self.field.p)
        rem = self.evaluate(root)
        return Polynomial(self.field, quot), rem

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field.p == other.field.p and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.field.p, tuple(self.coeffs)))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Polynomial(degree={self.degree})"


def evaluate_coeffs(coeffs: Sequence[int], x: int, p: int) -> int:
    """Horner evaluation on a raw little-endian coefficient list."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


# Internal alias kept for the module's own helpers.
_eval_raw = evaluate_coeffs


def _mul_schoolbook(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return [c % p for c in out]


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
