"""Pippenger multi-scalar multiplication with signed digits.

The verifier's one variable-base MSM (``Accumulator.finalize``) is the
only caller that matters: ``sum_i s_i * P_i`` over a few dozen to a few
hundred bases that change with every proof, so nothing can be
precomputed.  The kernel produces the same group element as the
point-by-point sum ``msm_naive`` in ``tests/msm_oracle.py`` (the test
oracle); four choices make it cheap:

- **GLV splitting** (:mod:`repro.ecc.glv`): every scalar is decomposed
  against the curve's cube-root endomorphism into two ~128-bit halves,
  halving the number of bucket windows and the doubling chain.
- **Signed digits**: each half is recoded into base-``2^c`` digits in
  ``(-2^(c-1), 2^(c-1)]`` (one extra window takes the last carry).  A
  negative digit inserts ``-P = (x, p - y)``, so a window needs only
  ``2^(c-1)`` buckets, and a wider window costs half the buckets it
  would unsigned.
- **Batch-affine buckets** (:mod:`repro.ecc.batch_affine`): every
  window's buckets fill in one batch-affine accumulation, each round of
  pairwise additions sharing one Montgomery batch inversion.
- **Batch-affine window sums**: ``sum_d d * B_d`` of every window is a
  running sum taken for all windows at once, one shared inversion per
  digit step; only the final doubling chain across windows is
  Jacobian.
"""

from __future__ import annotations

from typing import Sequence

from repro import telemetry
from repro.ecc import glv
from repro.ecc.batch_affine import batch_add, sum_affine_lists
from repro.ecc.curve import Curve, Point, points_to_affine_tuples

#: Below this many nonzero pairs :func:`msm` sums per-point GLV scalar
#: multiplications directly -- bucket machinery only pays off once the
#: shared inversions amortize.
_TINY_MSM = 8

#: The window widths :func:`_window_size` chooses from.
_WINDOWS = range(3, 9)

#: One shared inversion (one lane-collapse step) in affine additions:
#: measured ~7 on CPython, where a lane's addition is ~5.5 us and an
#: otherwise empty one-lane ``batch_add`` ~43 us.
_INVERSION_COST = 7


def _window_count(bits: int, c: int) -> int:
    """``W(c)``: windows of ``c``-bit signed digits for ``bits``-bit
    scalars, the last one for the carry out of the top digit."""
    return -(-bits // c) + 1


def _window_size(m: int, bits: int) -> int:
    """The window width ``c`` in 3..8 for ``m`` entries of ``bits``-bit
    scalars: the one of least counted work

        m * W(c)  +  2^(c-1) * W(c)  +  _INVERSION_COST * (2^(c-1) + 1)

    in affine additions.  The first term is the bucket insertions: the
    batch-affine fill adds all but the first point of each bucket, and
    the running-sum lane of :func:`_window_sums` adds that first point.
    The second is the total lane, one addition per window per digit
    step.  The third is the shared inversion of each of those steps.
    For ~128-bit GLV halves the count picks c = 5 up to 104 entries, 6
    up to 256, 7 up to 448 and 8 beyond -- the fastest width measured
    on the verifier's own MSMs at every size tried (120 to 746
    entries).  c = 9 would only win past 2,816 entries, far above any
    verifier MSM, hence the cap.
    """

    def cost(c: int) -> int:
        windows = _window_count(bits, c)
        steps = 1 << (c - 1)
        return (m + steps) * windows + _INVERSION_COST * (steps + 1)

    return min(_WINDOWS, key=cost)


def _signed_buckets(
    p: int, entries: list[tuple[int, int, int]], c: int, windows: int
) -> list[list[tuple[int, int]]]:
    """Every entry's signed digits, inserted into buckets.

    ``buckets[(d - 1) * windows + w]`` holds the points whose window-``w``
    digit is ``+-d``, negated for ``-d``; rows by digit, so one digit
    step of :func:`_window_sums` reads one contiguous slice.
    """
    half = 1 << (c - 1)
    full = 1 << c
    mask = full - 1
    buckets: list[list[tuple[int, int]]] = [[] for _ in range(half * windows)]
    for x, y, s in entries:
        pos = (x, y)
        neg = (x, p - y)
        w = 0
        while s:
            d = s & mask
            s >>= c
            if d > half:  # digit d - 2^c: insert -P, carry one up
                s += 1
                buckets[(full - d - 1) * windows + w].append(neg)
            elif d:
                buckets[(d - 1) * windows + w].append(pos)
            w += 1
    return buckets


def _window_sums(
    p: int, buckets: list[list[tuple[int, int]]], half: int, windows: int
) -> list:
    """``sum_d d * B_d`` of every window, as affine points or ``None``.

    Descending running sums, all windows as lanes of one
    :func:`~repro.ecc.batch_affine.batch_add` per digit step: the step
    for ``d`` adds ``B_d`` into ``running`` and the previous ``running``
    (``sum_{j > d} B_j``) into ``total`` -- both read only the previous
    step, so they share its inversion -- and one last addition of
    ``running`` completes ``sum_d d * B_d``.
    """
    running: list = [None] * windows
    total: list = [None] * windows
    for d in range(half, 0, -1):
        row = buckets[(d - 1) * windows : d * windows]
        live = [pts[0] if pts else None for pts in row]
        step = batch_add(p, running + total, live + running)
        running, total = step[:windows], step[windows:]
    return batch_add(p, total, running)


def _pippenger(curve: Curve, pairs: list[tuple[Point, int]]) -> Point:
    """Signed-digit, batch-affine Pippenger over GLV-split scalars."""
    if len(pairs) < _TINY_MSM:
        acc = curve.identity()
        for pt, s in pairs:
            acc = acc + pt * s
        return acc
    coords = points_to_affine_tuples([pt for pt, _ in pairs])
    entries = glv.split_entries(curve, coords, [s for _, s in pairs])
    if not entries:
        return curve.identity()
    p = curve.field.p
    bits = max(s.bit_length() for _, _, s in entries)
    c = _window_size(len(entries), bits)
    windows = _window_count(bits, c)
    buckets = _signed_buckets(p, entries, c, windows)
    # Bucket insertions: the kernel's unit of work (entries times the
    # nonzero signed digits of their scalars).
    telemetry.incr("msm.digits", sum(map(len, buckets)))
    sum_affine_lists(p, buckets)
    acc = curve.identity()
    for total in reversed(_window_sums(p, buckets, 1 << (c - 1), windows)):
        if not acc.is_identity():
            for _ in range(c):
                acc = acc.double()
        if total is not None:
            acc = acc + Point(curve, *total)
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
    if not pairs:
        return curve.identity()
    if len(pairs) == 1:
        pt, s = pairs[0]
        return pt * s
    return _pippenger(curve, pairs)
