"""Pippenger multi-scalar multiplication.

The IPA commitment cost is dominated by MSMs ``sum_i s_i * G_i``.
Pippenger's bucket method computes an n-point MSM in roughly
``n * 255 / c + 2^c`` group additions for window size ``c``, versus
``n * 255`` for naive per-point scalar multiplication.

Two independent kernel optimizations ride on top (both produce the
same group elements as the point-by-point sum ``msm_naive`` in
``tests/msm_oracle.py``, the test oracle):

- **GLV splitting** (:mod:`repro.ecc.glv`): every scalar is decomposed
  against the curve's cube-root endomorphism into two ~128-bit halves,
  halving the number of bucket windows and the doubling chain.
- **Batch-affine buckets** (:mod:`repro.ecc.batch_affine`): bucket
  accumulation runs on affine coordinates, resolving each round of
  pairwise additions with one shared Montgomery batch inversion
  instead of one ~16-multiplication Jacobian add per pair.

All bucket windows share one batch-affine accumulation and combine in
the usual doubling chain.
"""

from __future__ import annotations

from typing import Sequence

from repro import telemetry
from repro.ecc import glv
from repro.ecc.batch_affine import sum_affine_lists
from repro.ecc.curve import Curve, Point, points_to_affine_tuples

#: Below this many nonzero pairs :func:`msm` sums per-point GLV scalar
#: multiplications directly -- bucket machinery only pays off once the
#: shared inversions amortize.
_TINY_MSM = 8


def _window_size(n: int) -> int:
    """Window size for batch-affine buckets: smaller than the classic
    ``log2(n)`` so buckets collect several points each.

    The classic choice makes buckets singletons, which starves the
    shared inversion: all the work lands in the per-bucket Jacobian
    collapse.  Batched affine adds cost ~4 multiplications against ~16
    for the collapse's Jacobian ops, so the optimum shifts toward more
    collisions per bucket (~2^c = n/16) and fewer live buckets.
    """
    if n < 64:
        return 3
    return max(3, min(n.bit_length() - 5, 16))


def collapse_buckets(curve: Curve, buckets: dict[int, Point]) -> Point:
    """``sum_k k * buckets[k]`` by descending running sums, multiplying
    across empty runs (``total += gap * running``) instead of visiting
    every empty slot."""
    total = curve.identity()
    running = curve.identity()
    prev = 0
    for idx in sorted(buckets, reverse=True):
        if prev:
            total = total + running * (prev - idx)
        running = running + buckets[idx]
        prev = idx
    if prev:
        total = total + running * prev
    return total


def _affine_window_sums(
    curve: Curve,
    entries: list[tuple[int, int, int]],
    c: int,
    num_windows: int,
) -> list[Point]:
    """The ``num_windows`` window sums over GLV-split affine entries.

    All windows share one batch-affine accumulation, so the per-round
    inversion amortizes across every bucket of every window at once.
    """
    p = curve.field.p
    mask = (1 << c) - 1
    per_window: list[dict[int, list[tuple[int, int]]]] = [
        {} for _ in range(num_windows)
    ]
    for x, y, s in entries:
        pt = (x, y)
        for w, buckets in enumerate(per_window):
            idx = (s >> (w * c)) & mask
            if idx:
                buckets.setdefault(idx, []).append(pt)
    all_lists = [pts for buckets in per_window for pts in buckets.values()]
    rounds = sum_affine_lists(p, all_lists)
    telemetry.incr("msm.batch_affine_rounds", rounds)
    return [
        collapse_buckets(
            curve,
            {
                idx: Point(curve, *pts[0])
                for idx, pts in buckets.items()
                if pts
            },
        )
        for buckets in per_window
    ]


def _pippenger(curve: Curve, pairs: list[tuple[Point, int]]) -> Point:
    """Batch-affine Pippenger over GLV-split half-width scalars."""
    if len(pairs) < _TINY_MSM:
        acc = curve.identity()
        for pt, s in pairs:
            acc = acc + pt * s
        return acc
    coords = points_to_affine_tuples([pt for pt, _ in pairs])
    entries = glv.split_entries(curve, coords, [s for _, s in pairs])
    if not entries:
        return curve.identity()
    c = _window_size(len(entries))
    num_bits = max(s.bit_length() for _, _, s in entries)
    num_windows = (num_bits + c - 1) // c
    window_sums = _affine_window_sums(curve, entries, c, num_windows)
    acc = window_sums[-1]
    for total in reversed(window_sums[:-1]):
        for _ in range(c):
            acc = acc.double()
        acc = acc + total
    return acc


# -- public entry points ------------------------------------------------------


def msm(points: Sequence[Point], scalars: Sequence[int]) -> Point:
    """Compute ``sum_i scalars[i] * points[i]``.

    All points must share a curve; an empty input raises ValueError since
    the curve could not be inferred (use ``curve.identity()`` directly).
    """
    if len(points) != len(scalars):
        raise ValueError("points and scalars must have equal length")
    if not points:
        raise ValueError("msm of zero points; use curve.identity()")
    curve: Curve = points[0].curve
    order = curve.scalar_field.p
    pairs = []
    for pt, s in zip(points, scalars):
        s %= order  # reduced once, reused for both the filter and the sum
        if s and not pt.is_identity():
            pairs.append((pt, s))
    telemetry.incr("msm.calls")
    telemetry.incr("msm.points", len(pairs))
    telemetry.observe("msm.points_per_call", len(pairs))
    if not pairs:
        return curve.identity()
    if len(pairs) == 1:
        pt, s = pairs[0]
        return pt * s
    return _pippenger(curve, pairs)
