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

from repro import telemetry


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
    # One scalar multiplication: l^2 = -1 - l, so (l^2) * G = -G - l * G.
    lg = g * l
    candidates = ((l, lg), (l * l % n, -g - lg))
    endo = None
    for zeta in (z, z * z % p):
        phi_g = type(g)(curve, zeta * gx % p, gy)
        for lam, lam_g in candidates:
            if lam_g == phi_g:
                v1, v2 = _short_basis(n, lam)
                endo = Endo(zeta, lam, v1, v2)
                break
        if endo is not None:
            break
    _ENDOS[curve.name] = endo
    return endo


def half_bound(endo: Endo) -> int:
    """A bound ``B`` with ``|k1|, |k2| <= B`` for every
    :func:`decompose` output.

    Rounding leaves ``(k1, k2) = e1 * v1 + e2 * v2`` with
    ``|e1|, |e2| <= 1/2``, so each half is at most half the sum of the
    basis coordinates it collects."""
    return max(abs(endo.a1) + abs(endo.a2), abs(endo.b1) + abs(endo.b2)) // 2


def _round_div(a: int, b: int) -> int:
    """Nearest-integer division (b > 0)."""
    return (a + (b >> 1)) // b


def decompose(endo: Endo, k: int) -> tuple[int, int]:
    """Split ``k`` into ``(k1, k2)`` with ``k1 + lam*k2 = k mod n`` and
    both halves at most :func:`half_bound` in size (possibly negative)."""
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
