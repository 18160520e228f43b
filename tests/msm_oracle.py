"""The reference multi-scalar multiplication, kept as a test oracle.

One scalar multiplication per point, summed -- the simplest correct
MSM, which :func:`repro.ecc.msm.msm`, the fixed-base tables and the
IPA's folds must match point for point.
"""

from __future__ import annotations

from typing import Sequence

from repro.ecc.curve import Point


def msm_naive(points: Sequence[Point], scalars: Sequence[int]) -> Point:
    """``sum_i scalars[i] * points[i]``, one point at a time."""
    if not points:
        raise ValueError("msm of zero points; use curve.identity()")
    acc = points[0].curve.identity()
    for pt, s in zip(points, scalars):
        acc = acc + pt * s
    return acc


def table_bases(params) -> list[tuple[int, int]]:
    """The affine bases of a parameter set's fixed-base tables, in
    registry order: ``g``, ``w``, ``u``, then ``G_sum = sum_i g[i]``
    added one point at a time."""
    g_sum = params.curve.identity()
    for pt in params.g:
        g_sum = g_sum + pt
    return [pt.to_affine() for pt in (*params.g, params.w, params.u, g_sum)]
