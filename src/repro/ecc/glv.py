"""GLV endomorphism scalar decomposition for the Pasta curves.

Curves ``y^2 = x^3 + b`` over fields with ``p = 1 mod 3`` carry the
cube-root endomorphism ``phi(x, y) = (zeta_p * x, y)`` where ``zeta_p``
is a primitive cube root of unity in the base field; on the group,
``phi`` acts as multiplication by a cube root of unity ``lambda`` in
the scalar field.  Writing a 255-bit scalar ``k = k1 + lambda * k2``
with ``|k1|, |k2| ~ 2^128`` (closest-vector rounding against a short
lattice basis, GLV 2001) turns one full-width scalar multiplication
into two half-width ones sharing a doubling chain -- and halves the
window count of every Pippenger MSM.

Everything here is derived, not hard-coded: the zeta/lambda pairing is
found by testing ``phi(G) == lambda * G`` on the curve generator, and
the short basis comes from the extended Euclidean algorithm on
``(n, lambda)``.  Curves without the endomorphism (``p != 1 mod 3``)
get ``None`` and callers fall back to plain scalars.
"""

from __future__ import annotations

from math import isqrt
from typing import Sequence

from repro import telemetry
from repro.ecc.batch_affine import batch_add, batch_double


class Endo:
    """Derived endomorphism data for one curve."""

    __slots__ = ("zeta", "lam", "a1", "b1", "a2", "b2", "det")

    def __init__(self, zeta: int, lam: int, v1: tuple[int, int], v2: tuple[int, int]):
        self.zeta = zeta
        self.lam = lam
        self.a1, self.b1 = v1
        self.a2, self.b2 = v2
        self.det = self.a1 * self.b2 - self.a2 * self.b1


#: Per-curve cache; None records "no endomorphism" (and doubles as the
#: in-progress sentinel so the derivation's own scalar multiplications
#: do not recurse back into the GLV path).
_ENDOS: dict[str, "Endo | None"] = {}


def _short_basis(n: int, lam: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Two short lattice vectors ``(a, b)`` with ``a + b*lam = 0 mod n``
    via the extended Euclidean algorithm (stop at ``r < sqrt(n)``)."""
    bound = isqrt(n)
    r0, r1 = n, lam % n
    t0, t1 = 0, 1
    while r1 >= bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    v1 = (r1, -t1)
    # Second vector: the shorter of the neighbours of v1 in the
    # remainder sequence (both satisfy the lattice relation).
    q = r0 // r1
    r2, t2 = r0 - q * r1, t0 - q * t1
    if r0 * r0 + t0 * t0 <= r2 * r2 + t2 * t2:
        v2 = (r0, -t0)
    else:
        v2 = (r2, -t2)
    return v1, v2


def curve_endo(curve) -> "Endo | None":
    """The curve's cube-root endomorphism, or ``None`` if it has none.

    Derived once per curve and cached: zeta/lambda candidates are the
    two primitive cube roots of unity in the base/scalar field, and the
    matching pair is confirmed against the generator.
    """
    cached = _ENDOS.get(curve.name, _ENDOS)
    if cached is not _ENDOS:
        return cached
    # Sentinel first: the lambda*G checks below run plain windowed
    # scalar multiplication instead of recursing into GLV.
    _ENDOS[curve.name] = None
    p = curve.field.p
    n = curve.scalar_field.p
    if p % 3 != 1 or n % 3 != 1:
        return None
    z = pow(curve.field.multiplicative_generator, (p - 1) // 3, p)
    l = pow(curve.scalar_field.multiplicative_generator, (n - 1) // 3, n)
    g = curve.generator
    gx, gy = g.to_affine()
    endo = None
    for zeta in (z, z * z % p):
        phi_g = type(g)(curve, zeta * gx % p, gy)
        for lam in (l, l * l % n):
            if g * lam == phi_g:
                v1, v2 = _short_basis(n, lam)
                endo = Endo(zeta, lam, v1, v2)
                break
        if endo is not None:
            break
    _ENDOS[curve.name] = endo
    return endo


def _round_div(a: int, b: int) -> int:
    """Nearest-integer division (b > 0)."""
    return (a + (b >> 1)) // b


def decompose(endo: Endo, k: int) -> tuple[int, int]:
    """Split ``k`` into ``(k1, k2)`` with ``k1 + lam*k2 = k mod n`` and
    both halves around 128 bits (possibly negative)."""
    det = endo.det
    if det < 0:
        c1 = _round_div(-endo.b2 * k, -det)
        c2 = _round_div(endo.b1 * k, -det)
    else:
        c1 = _round_div(endo.b2 * k, det)
        c2 = _round_div(-endo.b1 * k, det)
    k1 = k - c1 * endo.a1 - c2 * endo.a2
    k2 = -c1 * endo.b1 - c2 * endo.b2
    return k1, k2


def split_entries(
    curve, coords: list[tuple[int, int]], scalars: list[int]
) -> list[tuple[int, int, int]]:
    """GLV-split (affine point, scalar) pairs into half-width entries.

    Returns ``(x, y, s)`` triples with ``s > 0`` of roughly half the
    scalar width: each input contributes ``(P, k1)`` and ``(phi(P), k2)``
    with negative halves folded into the point's sign.  With no
    endomorphism the input pairs are returned unchanged.
    """
    endo = curve_endo(curve)
    p = curve.field.p
    if endo is None:
        return [(x, y, s) for (x, y), s in zip(coords, scalars)]
    telemetry.incr("msm.glv_splits", len(scalars))
    entries: list[tuple[int, int, int]] = []
    zeta = endo.zeta
    for (x, y), s in zip(coords, scalars):
        k1, k2 = decompose(endo, s)
        if k1:
            entries.append((x, y if k1 > 0 else p - y, abs(k1)))
        if k2:
            entries.append((zeta * x % p, y if k2 > 0 else p - y, abs(k2)))
    return entries


def endo_mul(pt, n: int, endo: Endo):
    """GLV scalar multiplication: interleaved 4-bit windows over the
    two half-width halves of ``n`` (same group element as ``pt * n``)."""
    curve = pt.curve
    p = curve.field.p
    k1, k2 = decompose(endo, n)
    telemetry.incr("msm.glv_splits")
    x, y = pt.to_affine()
    point = type(pt)
    a1, a2 = abs(k1), abs(k2)
    # Window table for the k1 half; the k2 table is its endomorphism
    # image (zeta * x per entry), with the relative sign folded in.
    t1 = [point(curve, x, y if k1 >= 0 else p - y)]
    size = min(15, max(a1, a2, 1))
    base = t1[0]
    for _ in range(size - 1):
        t1.append(t1[-1] + base)
    flip = (k1 >= 0) != (k2 >= 0)
    t2 = []
    for q in t1:
        # phi on Jacobian coords: X' = zeta * X (affine x scales by
        # zeta, y and z are untouched); flip negates for the relative
        # sign between the two halves.
        t2.append(
            point(curve, endo.zeta * q.x % p, (p - q.y) if flip else q.y, q.z)
        )
    acc = curve.identity()
    top = ((max(a1.bit_length(), a2.bit_length(), 1) + 3) // 4) * 4 - 4
    for shift in range(top, -1, -4):
        if not acc.is_identity():
            acc = acc.double().double().double().double()
        w1 = (a1 >> shift) & 0xF
        if w1:
            acc = acc + t1[w1 - 1]
        w2 = (a2 >> shift) & 0xF
        if w2:
            acc = acc + t2[w2 - 1]
    return acc


def batch_mul(curve, coords: list, scalars: Sequence[int]) -> list:
    """Elementwise ``scalars[i] * coords[i]`` over affine points
    (``None`` is the identity): :func:`endo_mul` for many lanes at once.

    Every lane runs the same interleaved 4-bit window schedule over its
    two GLV halves, so each doubling or addition step across all lanes
    is one batch-affine pass sharing one inversion.  Same group element
    as ``Point * scalar`` in every lane.
    """
    p = curve.field.p
    order = curve.scalar_field.p
    endo = curve_endo(curve)
    if endo is not None:
        telemetry.incr("msm.glv_splits", len(scalars))
    base: list = []
    a1s: list[int] = []
    a2s: list[int] = []
    flips: list[bool] = []
    for pt, s in zip(coords, scalars):
        s %= order
        k1, k2 = decompose(endo, s) if endo is not None else (s, 0)
        if pt is None or not s:
            pt, k1, k2 = None, 0, 0
        else:
            pt = (pt[0], pt[1] if k1 >= 0 else p - pt[1])
        base.append(pt)
        a1s.append(abs(k1))
        a2s.append(abs(k2))
        flips.append((k1 >= 0) != (k2 >= 0))
    m = len(base)
    # rows[d][i] = d * base[i], row 0 the identity: the k1 half's window
    # table.  The k2 half reads the same rows through the endomorphism,
    # with the relative sign of the two halves folded in (without an
    # endomorphism every k2 is 0 and reads the identity row).
    rows = [[None] * m, base, batch_double(p, base)]
    while len(rows) < 16:
        rows.append(batch_add(p, rows[-1], base))
    zeta = endo.zeta if endo is not None else 1
    bits = max((a.bit_length() for a in a1s + a2s), default=0)
    top = ((bits + 3) // 4) * 4 - 4
    acc: list = [None] * m
    for shift in range(top, -1, -4):
        if shift != top:
            for _ in range(4):
                acc = batch_double(p, acc)
        k1_terms = [rows[(a >> shift) & 15][i] for i, a in enumerate(a1s)]
        acc = batch_add(p, acc, k1_terms)
        k2_rows = [rows[(a >> shift) & 15][i] for i, a in enumerate(a2s)]
        k2_terms = [
            None if q is None else (zeta * q[0] % p, p - q[1] if flip else q[1])
            for q, flip in zip(k2_rows, flips)
        ]
        acc = batch_add(p, acc, k2_terms)
    return acc
