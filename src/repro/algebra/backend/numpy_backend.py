"""Numpy limb-vector backend: whole-array field arithmetic.

Thin adapter between the :class:`~repro.algebra.backend.FieldBackend`
hook protocol and the limb-vector engine
(:mod:`~repro.algebra.backend.numpy_limb`), which does the actual
arithmetic on ``(L, n)`` int64 limb arrays.  The adapter's job is
*policy*: decide per call whether the vector engine wins, convert at
the int boundary, and track limb magnitudes so every product stays
inside the engine's certified bounds.

Where the engine wins (measured; see DESIGN.md section 5e):

- NTTs from :data:`MIN_NTT` points up -- the butterflies and twiddle
  products are pure array ops,
- Lagrange basis evaluation -- the denominators are *generated* as a
  vector, inverted by the resident product tree, and scaled in one
  pass, so the int boundary is crossed once instead of three times,
- extended-domain expression evaluation on *favorable trees* -- sum
  chains and deep gates over few columns, where the per-node savings
  outrun the lift/lower boundary tax.  A cost model (below) estimates
  the gain per tree and declines unfavorable shapes, so shallow
  product-heavy gates stay in the compiled program
  (:mod:`repro.proving.evaluation`).

Where it loses: list-boundary batch inversion.  Montgomery inversion is
3n multiplications on either engine, CPython's bigint multiply is
already C speed, and the lift/lower conversions add ~600ns/element on
top -- measured 0.7-0.8x.  The protocol therefore has no batch-inversion
hook, and the vector inversion is reserved for call sites whose
operands already live (or are produced) in limb form.
"""

from __future__ import annotations

import importlib.util
from typing import Callable

from repro.algebra.backend import FieldBackend

#: vector paths only engage at or above these batch sizes -- below
#: them ufunc dispatch overhead beats the scalar loop.
MIN_INV = 2048
MIN_NTT = 2048
MIN_EXPR = 1024


def _limb():
    """The limb engine.  Imported -- and numpy with it (0.17 s, ~10 MB
    resident) -- by the first hook call that passes its size threshold,
    so a workload that never reaches one never pays for it."""
    from repro.algebra.backend import numpy_limb

    return numpy_limb


# Expression-evaluation cost model (ns/element, measured at n=16384;
# host-relative, but only the *ratios* steer the decision).  A scalar
# Sum node costs ~90ns/elt against ~15 vectorized; a scalar Product
# ~390 (zip + bigint mul) against ~300 (vector mul plus the amortized
# canon pass a product chain needs to stay certified); Scaled loses
# vectorized because a small-int scalar multiply is cheap in CPython
# but a full limb product on the array.  On top of the per-node gains
# the vector path pays a flat lift per distinct column and one lower
# for the result -- which is why shallow trees over many columns are
# declined and deep sum chains over few columns are accepted.
EXPR_NODE_GAIN = {"sum": 75.0, "product": 90.0, "scaled": -190.0}
EXPR_LIFT_NS = 130.0
EXPR_LOWER_NS = 430.0
#: Minimum estimated ns/element saved before the hook accepts; tests
#: monkeypatch this to -inf to force the vector path for parity checks.
EXPR_MIN_GAIN = 100.0


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

    def eval_expression_ext(
        self,
        expr: object,
        get_column_ext: Callable[[object], list[int]],
        ext_n: int,
        rotation_factor: int,
        p: int,
    ) -> list[int] | None:
        if ext_n < MIN_EXPR:
            return None
        from repro.plonkish.expression import (
            ColumnQuery,
            Constant,
            Product,
            Scaled,
            Sum,
        )

        # Pre-walk: estimate the per-element gain and decline trees the
        # boundary tax would pessimize (see the cost model up top).
        gain = -EXPR_LOWER_NS
        cols: set[int] = set()
        stack = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, Sum):
                gain += EXPR_NODE_GAIN["sum"]
                stack += (node.left, node.right)
            elif isinstance(node, Product):
                gain += EXPR_NODE_GAIN["product"]
                stack += (node.left, node.right)
            elif isinstance(node, Scaled):
                gain += EXPR_NODE_GAIN["scaled"]
                stack.append(node.inner)
            elif isinstance(node, ColumnQuery):
                cols.add(id(node.column))
            elif not isinstance(node, Constant):
                return None  # unknown node type: reference path raises
        gain -= len(cols) * EXPR_LIFT_NS
        if gain < EXPR_MIN_GAIN:
            return None
        numpy_limb = _limb()
        np = numpy_limb.np
        ctx = numpy_limb.ctx_for(p)
        if ctx is None:
            return None

        mask = float(numpy_limb.MASK)
        add_lim = float(numpy_limb.ADD_LIM)
        max_prod = float(numpy_limb.MAX_PROD)
        out_lim = float(numpy_limb.OUT_LIM)
        columns: dict[int, object] = {}

        def column(col):
            arr = columns.get(id(col))
            if arr is None:
                arr = columns[id(col)] = ctx.lift(get_column_ext(col))
            return arr

        def fit_for_mul(a, ma, b, mb):
            # Keep every product inside the engine's certification; a
            # freshly normalized operand is bounded by OUT_LIM, and
            # L * OUT_LIM^2 < 2^62 always holds.
            if ctx.L * ma * mb > max_prod:
                if ma > out_lim:
                    ma = ctx.normalize(a, ma)
                if ctx.L * ma * mb > max_prod:
                    mb = ctx.normalize(b, mb)
            return ma, mb

        def walk(node):
            """Returns ``(limb_array, magnitude)``; every magnitude is
            kept <= ADD_LIM so ``normalize``/``canon`` stay certified.
            Only freshly computed arrays are ever normalized in place --
            memoized column lifts are canonical and never qualify."""
            if isinstance(node, Constant):
                return ctx.lift([node.value % p]), mask
            if isinstance(node, ColumnQuery):
                arr = column(node.column)
                shift = (node.rotation * rotation_factor) % ext_n
                if shift:
                    return np.roll(arr, -shift, axis=1), mask
                return arr, mask
            if isinstance(node, Sum):
                a, ma = walk(node.left)
                b, mb = walk(node.right)
                if ma + mb > add_lim:
                    if ma > out_lim:
                        ma = ctx.normalize(a, ma)
                    if ma + mb > add_lim:
                        mb = ctx.normalize(b, mb)
                return a + b, ma + mb
            if isinstance(node, Product):
                a, ma = walk(node.left)
                b, mb = walk(node.right)
                ma, mb = fit_for_mul(a, ma, b, mb)
                return ctx.mul(a, b), float(numpy_limb.OUT_LIM)
            if isinstance(node, Scaled):
                a, ma = walk(node.inner)
                b = ctx.lift([node.scalar % p])
                ma, _ = fit_for_mul(a, ma, b, mask)
                return ctx.mul(a, b), float(numpy_limb.OUT_LIM)
            raise TypeError(
                f"unknown expression node {type(node).__name__}"
            )

        try:
            arr, _mag = walk(expr)
        except TypeError:
            return None  # unknown node type: let the reference path raise
        if arr.shape[1] == 1:
            full = np.empty((ctx.L, ext_n), np.int64)
            np.copyto(full, arr)
            arr = full
        return ctx.lower(arr)
