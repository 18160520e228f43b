"""Batch-affine group arithmetic (the zcash/halo2 MSM trick).

A Jacobian addition costs ~16 field multiplications because it dodges
the inversion an affine addition needs.  But when *many* independent
additions happen at once -- Pippenger bucket accumulation, fixed-base
digit accumulation, table doubling, the lanes of the Lagrange-basis
group FFT -- their inversions can share one
Montgomery batch inversion: each affine addition then costs ~4 field
multiplications plus an O(1) amortized share of a single inversion, less
than a third of the Jacobian cost.

Points here are affine coordinate pairs ``(x, y)`` with ``None`` for
the identity; all functions are pure coordinate kernels over a prime
modulus ``p`` and never touch :class:`~repro.ecc.curve.Point` (callers
convert at the boundary).  Exceptional cases (doubling, inverse pairs,
identity operands) are handled explicitly, so the results equal the
Jacobian path on every input -- bit-identical once normalized.
"""

from __future__ import annotations

from typing import Sequence

from repro.algebra.field import montgomery_batch_inv

#: Affine point: coordinates, or None for the group identity.
Affine = "tuple[int, int] | None"


def sum_affine_lists(p: int, lists: Sequence[list[tuple[int, int]]]) -> int:
    """Reduce every list of affine points to at most one point, in place.

    Each round pairs up the entries of every list and resolves all the
    pairwise additions with ONE shared batch inversion; a list of ``m``
    points finishes in ``ceil(log2 m)`` rounds.  Lists may end empty
    when their points cancel to the identity.  Returns the number of
    shared-inversion rounds (the ``msm.batch_affine_rounds`` counter).
    """
    rounds = 0
    active = [pts for pts in lists if len(pts) > 1]
    while active:
        denoms: list[int] = []
        kinds: list[int] = []
        for pts in active:
            for t in range(0, len(pts) - 1, 2):
                x1, y1 = pts[t]
                x2, y2 = pts[t + 1]
                if x1 != x2:
                    denoms.append(x2 - x1)
                    kinds.append(0)
                elif (y1 + y2) % p == 0:
                    kinds.append(2)  # P + (-P): cancels to the identity
                else:
                    denoms.append(2 * y1)
                    kinds.append(1)  # equal points: affine doubling
        rounds += 1
        invs = montgomery_batch_inv(denoms, p)
        vi = 0
        ki = 0
        still_active = []
        for pts in active:
            m = len(pts)
            new: list[tuple[int, int]] = []
            for t in range(0, m - 1, 2):
                kind = kinds[ki]
                ki += 1
                if kind == 2:
                    continue
                x1, y1 = pts[t]
                if kind == 0:
                    x2, y2 = pts[t + 1]
                    lam = (y2 - y1) * invs[vi] % p
                    vi += 1
                    x3 = (lam * lam - x1 - x2) % p
                else:
                    lam = 3 * x1 * x1 * invs[vi] % p
                    vi += 1
                    x3 = (lam * lam - 2 * x1) % p
                new.append((x3, (lam * (x1 - x3) - y1) % p))
            if m & 1:
                new.append(pts[-1])
            pts[:] = new
            if len(new) > 1:
                still_active.append(pts)
        active = still_active
    return rounds


def batch_add(p: int, a: list, b: list) -> list:
    """Elementwise ``a[i] + b[i]`` with ONE shared inversion.

    Either operand may be ``None`` (the identity); equal points double
    and inverse pairs cancel to ``None``, so every lane is exact.
    """
    denoms: list[int] = []
    for pt, qt in zip(a, b):
        if pt is None or qt is None:
            continue
        if pt[0] != qt[0]:
            denoms.append(qt[0] - pt[0])
        elif pt[1] == qt[1] and pt[1]:
            denoms.append(2 * pt[1])  # equal points: affine doubling
    invs = montgomery_batch_inv(denoms, p) if denoms else []
    out: list = []
    vi = 0
    for pt, qt in zip(a, b):
        if pt is None or qt is None:
            out.append(qt if pt is None else pt)
            continue
        x1, y1 = pt
        x2, y2 = qt
        if x1 != x2:
            lam = (y2 - y1) * invs[vi] % p
            x3 = (lam * lam - x1 - x2) % p
        elif y1 == y2 and y1:
            lam = 3 * x1 * x1 * invs[vi] % p
            x3 = (lam * lam - 2 * x1) % p
        else:
            out.append(None)  # P + (-P)
            continue
        vi += 1
        out.append((x3, (lam * (x1 - x3) - y1) % p))
    return out


def batch_double(p: int, pts: list) -> list:
    """Elementwise affine doubling; ``None`` doubles to ``None``."""
    denoms = [2 * pt[1] for pt in pts if pt is not None and pt[1]]
    if not denoms:
        return [None] * len(pts)
    invs = montgomery_batch_inv(denoms, p)
    out = []
    vi = 0
    for pt in pts:
        if pt is None or not pt[1]:
            out.append(None)
            continue
        x1, y1 = pt
        lam = 3 * x1 * x1 * invs[vi] % p
        vi += 1
        x3 = (lam * lam - 2 * x1) % p
        out.append((x3, (lam * (x1 - x3) - y1) % p))
    return out
