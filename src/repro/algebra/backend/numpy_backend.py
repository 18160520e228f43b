"""Numpy limb-vector backend: whole-array field arithmetic.

Thin adapter between the :class:`~repro.algebra.backend.FieldBackend`
hook protocol and the limb-vector engine
(:mod:`~repro.algebra.backend.numpy_limb`), which does the actual
arithmetic on ``(L, n)`` int64 limb arrays.  The adapter's job is
*policy*: decide per call whether the vector engine wins, and convert
at the int boundary.

Where the engine wins (measured; see DESIGN.md section 5e):

- NTTs from :data:`MIN_NTT` points up -- the butterflies and twiddle
  products are pure array ops,
- Lagrange basis evaluation -- the denominators are *generated* as a
  vector, inverted by the resident product tree, and scaled in one
  pass, so the int boundary is crossed once instead of three times.

Where it loses:

- constraint expressions -- the compiled program
  (:mod:`repro.proving.evaluation`) beat a per-tree vector walk on
  every TPC-H circuit, so the protocol has no expression hook,
- list-boundary batch inversion -- Montgomery inversion is 3n
  multiplications on either engine, CPython's bigint multiply is
  already C speed, and the lift/lower conversions add ~600ns/element
  on top (measured 0.7-0.8x).  The protocol therefore has no
  batch-inversion hook, and the vector inversion is reserved for call
  sites whose operands are produced in limb form.
"""

from __future__ import annotations

import importlib.util

from repro.algebra.backend import FieldBackend

#: vector paths only engage at or above these batch sizes -- below
#: them ufunc dispatch overhead beats the scalar loop.
MIN_INV = 2048
MIN_NTT = 2048


def _limb():
    """The limb engine.  Imported -- and numpy with it (0.17 s, ~10 MB
    resident) -- by the first hook call that passes its size threshold,
    so a workload that never reaches one never pays for it."""
    from repro.algebra.backend import numpy_limb

    return numpy_limb


class NumpyBackend(FieldBackend):
    """Limb-vector arithmetic on numpy int64 arrays."""

    name = "numpy"

    def __init__(self) -> None:
        #: (p, omega_inv, size) -> lifted [omega_inv^i] power table,
        #: cached per domain for the fused Lagrange evaluation.
        self._pow_tables: dict = {}

    @classmethod
    def available(cls) -> bool:
        return importlib.util.find_spec("numpy") is not None

    # -- hooks -----------------------------------------------------------

    def ntt(self, values: list, omega: int, p: int) -> list | None:
        n = len(values)
        if n < MIN_NTT or n & (n - 1):
            return None
        ctx = _limb().ctx_for(p)
        if ctx is None:
            return None
        return ctx.ntt(values, omega)

    def lagrange_evals(
        self,
        x: int,
        count: int,
        *,
        p: int,
        omega: int,
        omega_inv: int,
        size: int,
        kk: int,
    ) -> list[int] | None:
        if count < MIN_INV:
            return None
        ctx = _limb().ctx_for(p)
        if ctx is None:
            return None
        # L_i(x) = (z/n) * omega^i / (x - omega^i); multiplying the
        # numerator and denominator by omega^-i gives the fused form
        # kk / (x * omega^-i - 1), whose denominators are one broadcast
        # product over the cached [omega_inv^i] table.  Exact match:
        # both forms are the same field element.
        key = (p, omega_inv, size)
        table = self._pow_tables.get(key)
        if table is None:
            pows = [1] * size
            for i in range(1, size):
                pows[i] = pows[i - 1] * omega_inv % p
            table = self._pow_tables[key] = ctx.lift(pows)
        u = ctx.mul(ctx.lift([x % p]), table[:, :count])
        u[0] -= 1  # still far inside the tree's magnitude bound
        return ctx.lower(ctx.tree_inv_arr(u, kk))
