"""Fixed-base MSM over precomputed window tables.

Every Pedersen/IPA commitment in a proving session is an MSM against
the *same* bases: the public-parameter generators ``G_i`` (for a
coefficient vector) or their Lagrange-basis images ``L_j`` (for a
column's values over the evaluation domain), plus the blinding base
``W`` and the inner-product base ``U``.  Those bases never change, so
the doubling chains that dominate a generic Pippenger run can be paid
once: for window width ``c`` we precompute the shifted bases
``B[i][j] = 2^(j*c) * base_i`` for every window ``j``.

A commitment then needs **zero doublings**: each scalar's base-``2^c``
digits index straight into one shared bucket set (all shifted bases
are plain affine points, so windows do not need separate buckets), the
buckets are reduced with one batch-affine accumulation
(:func:`~repro.ecc.batch_affine.sum_affine_lists`), and a two-level
collapse finishes the job: the same batched addition folds the 255
buckets into 15 + 15 half-digit sums, and only those go through a
Jacobian running sum.  The unit of work is the
*nonzero digit*, not the point: a 4-bit limb costs one bucket
insertion where a full-width scalar costs 32, which is why columns are
committed by their values against the Lagrange set
(:func:`lagrange_bases`) rather than by their coefficients.

Tables are keyed by the :meth:`~repro.commit.params.PublicParams.fingerprint`
of the parameter set and the basis (``MONOMIAL`` / ``LAGRANGE``, whose
layout is stated once, at the registry below).  A process-local
registry serves repeat lookups (forked service runners inherit it);
optionally an :class:`~repro.cache.ArtifactCache` attached via
:func:`configure_cache` persists tables across runs next to the cached
parameters themselves.  The result is always the same group element
the generic :func:`~repro.ecc.msm.msm` would produce -- only the
schedule differs.
"""

from __future__ import annotations

import os
import pickle
import threading
from typing import TYPE_CHECKING, Sequence

from repro import telemetry
from repro.algebra import fft_plan
from repro.algebra.domain import EvaluationDomain
from repro.cache import cache_key
from repro.ecc import glv
from repro.ecc.batch_affine import batch_add, batch_double, sum_affine_lists
from repro.ecc.curve import Curve, Point, curve_by_name, points_to_affine_tuples

if TYPE_CHECKING:  # pragma: no cover
    from repro.cache import ArtifactCache
    from repro.commit.params import PublicParams

#: Window width for the shifted-base tables.  Memory per base is
#: ``ceil(255 / c)`` affine points; c = 8 keeps that at 32 points
#: (~2 KiB) per base while the shared bucket set stays small (255
#: buckets) next to the number of digit insertions.
FIXED_BASE_WINDOW = 8


class FixedBaseTables:
    """Shifted window multiples of a fixed base vector.

    ``tables[i][j]`` is the affine ``(x, y)`` of ``2^(j*c) * base_i``
    (``None`` when the multiple is the identity).  Plain picklable data
    so tables travel through the artifact cache and fork boundaries.
    """

    __slots__ = ("curve_name", "c", "windows", "tables")

    def __init__(
        self,
        curve_name: str,
        c: int,
        windows: int,
        tables: list,
    ):
        self.curve_name = curve_name
        self.c = c
        self.windows = windows
        self.tables = tables

    def __len__(self) -> int:
        return len(self.tables)

    def __getstate__(self):
        return (self.curve_name, self.c, self.windows, self.tables)

    def __setstate__(self, state):
        self.curve_name, self.c, self.windows, self.tables = state


def build_tables(
    curve: Curve, coords: Sequence, c: int = FIXED_BASE_WINDOW
) -> FixedBaseTables:
    """Precompute shifted window bases for the affine points ``coords``
    (the identity as ``None`` or ``(0, 0)``).

    Pure doublings: the whole base vector is doubled ``c`` times per
    window with elementwise batch-affine passes (one shared inversion
    each), so building costs ~255 batch passes regardless of how many
    bases there are.
    """
    if c < 1:
        raise ValueError("window width must be positive")
    p = curve.field.p
    num_bits = curve.scalar_field.p.bit_length()
    windows = (num_bits + c - 1) // c
    vec = [None if xy == (0, 0) else xy for xy in coords]
    shifted = [list(vec)]
    for _ in range(windows - 1):
        for _ in range(c):
            vec = batch_double(p, vec)
        shifted.append(list(vec))
    tables = [
        [shifted[j][i] for j in range(windows)] for i in range(len(coords))
    ]
    return FixedBaseTables(curve.name, c, windows, tables)


def collapse_buckets(curve: Curve, buckets: dict[int, Point]) -> Point:
    """``sum_k k * buckets[k]`` by descending running sums, multiplying
    across empty runs (``total += gap * running``) instead of visiting
    every empty slot.  Jacobian: :func:`fixed_base_msm` runs it on just
    two short lists (its 15 + 15 half-digit sums), too few lanes for a
    batch-affine collapse to win."""
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


def fixed_base_msm(
    tables: FixedBaseTables,
    scalars: Sequence[int],
    indices: Sequence[int] | None = None,
) -> Point:
    """``sum_i scalars[i] * base[indices[i]]`` against precomputed tables.

    ``indices`` defaults to ``range(len(scalars))``.  Same group element
    as the generic MSM over the corresponding bases; no doubling chain,
    one shared bucket set across every window of every scalar.
    """
    curve = curve_by_name(tables.curve_name)
    order = curve.scalar_field.p
    c = tables.c
    mask = (1 << c) - 1
    rows = tables.tables
    buckets: dict[int, list[tuple[int, int]]] = {}
    live = 0
    if indices is None:
        indices = range(len(scalars))
    for idx, s in zip(indices, scalars):
        s %= order
        if not s:
            continue
        row = rows[idx]
        live += 1
        w = 0
        while s:
            d = s & mask
            if d:
                pt = row[w]
                if pt is not None:
                    lst = buckets.get(d)
                    if lst is None:
                        buckets[d] = [pt]
                    else:
                        lst.append(pt)
            s >>= c
            w += 1
    telemetry.incr("msm.fixed_base_calls")
    telemetry.incr("msm.fixed_base_points", live)
    # Bucket insertions: the kernel's unit of work (points times the
    # nonzero base-2^c digits of their scalars).
    telemetry.incr(
        "msm.fixed_base_digits", sum(len(pts) for pts in buckets.values())
    )
    if not buckets:
        return curve.identity()
    p = curve.field.p
    rounds = sum_affine_lists(p, list(buckets.values()))
    # Two-level collapse of sum_d d * bucket[d].  With d = hi * 2^h + lo
    # that is 2^h * sum_hi hi * H[hi] + sum_lo lo * L[lo], where H / L
    # add up the buckets that share a high / low half-digit.  Forming H
    # and L is more of the batched affine addition that filled the
    # buckets; what is left for Jacobian arithmetic is two running sums
    # over at most 2^h - 1 entries each, instead of one over 2^c - 1.
    half = c // 2
    low = (1 << half) - 1
    his: dict[int, list[tuple[int, int]]] = {}
    los: dict[int, list[tuple[int, int]]] = {}
    for d, pts in buckets.items():
        if pts:  # a bucket whose points cancelled is empty
            if d >> half:
                his.setdefault(d >> half, []).append(pts[0])
            if d & low:
                los.setdefault(d & low, []).append(pts[0])
    rounds += sum_affine_lists(p, [*his.values(), *los.values()])
    telemetry.incr("msm.batch_affine_rounds", rounds)
    hi_sum, lo_sum = (
        collapse_buckets(
            curve, {i: Point(curve, *pts[0]) for i, pts in part.items() if pts}
        )
        for part in (his, los)
    )
    for _ in range(half):
        hi_sum = hi_sum.double()
    return hi_sum + lo_sum


# -- per-parameter-set table registry ----------------------------------------

#: A parameter set has two table sets, one per basis a committed vector
#: can be expressed in: ``MONOMIAL`` over ``g`` (coefficient vectors --
#: quotient pieces, every IPA round's cross terms, the folded base) and
#: ``LAGRANGE`` over :func:`lagrange_bases` (column values on the
#: evaluation domain).
#: Both hold ``n + 2`` bases: index ``i < n`` is ``g[i]`` / ``L[i]``,
#: index ``n`` is the blinding base ``w`` and ``n + 1`` is ``u``.
MONOMIAL = "g"
LAGRANGE = "lagrange"

_Key = tuple[str, str, int]  # (kind, params fingerprint, window width)

#: Process-local tables.  A forked service runner inherits whatever
#: the parent built before the fork (the service builds them when it
#: opens); a later miss loads from disk or builds in the runner.
_REGISTRY: dict[_Key, FixedBaseTables] = {}

#: One build lock per table set, so concurrent first users (service
#: workers, verifier threads) load or build it once; ``_LOCKS_GUARD``
#: covers the lock table itself.
_LOCKS: dict[_Key, threading.Lock] = {}
_LOCKS_GUARD = threading.Lock()


def _new_locks_after_fork() -> None:
    # A parent thread may have held any of these at the fork; in the
    # child nothing would ever release them.
    global _LOCKS, _LOCKS_GUARD
    _LOCKS, _LOCKS_GUARD = {}, threading.Lock()


os.register_at_fork(after_in_child=_new_locks_after_fork)

#: Optional artifact cache for cross-run persistence (see
#: :func:`configure_cache`; sessions attach their cache here).
_CACHE: "ArtifactCache | None" = None


def configure_cache(cache: "ArtifactCache | None") -> None:
    """Attach (or detach, with ``None``) the on-disk artifact cache used
    to persist tables across runs."""
    global _CACHE
    _CACHE = cache


def clear_registry() -> None:
    """Drop every in-process table (tests)."""
    _REGISTRY.clear()


def lagrange_bases(params: "PublicParams") -> list:
    """``L_j = sum_i (n^-1 * omega^(-i*j)) * g[i]``: the group inverse FFT
    of ``params.g`` over the size-``n`` evaluation domain of the scalar
    field, as affine points (``None`` for the identity).

    By linearity ``sum_j e_j * L_j == sum_i c_i * g[i]`` whenever ``c``
    is the inverse FFT of ``e``, so committing a column's *values*
    against ``L`` gives the group element its coefficients give against
    ``g`` -- without widening small values into full-width scalars.

    Each butterfly stage is two batch-affine passes: one vectorised GLV
    ladder (:func:`~repro.ecc.glv.batch_mul`) for all of its twiddle
    products, one elementwise addition for all of its ``lo +- hi``.
    ``n^-1`` rides on the last stage's twiddles (that stage scales its
    ``lo`` too), which makes ``(k - 1) * n / 2 + 2`` products in all.
    """
    curve = params.curve
    p = curve.field.p
    order = curve.scalar_field.p
    domain = EvaluationDomain(curve.scalar_field, params.k)
    plan = fft_plan.plan_for(domain.size, domain.omega_inv, order)
    n, n_inv = plan.n, domain.size_inv
    coords = points_to_affine_tuples(list(params.g))
    pts = [None if xy == (0, 0) else xy for xy in coords]
    for i, j in plan.swaps:
        pts[i], pts[j] = pts[j], pts[i]
    length = 2
    for ws in plan.stages:
        half = length // 2
        los = [start + i for start in range(0, n, length) for i in range(half)]
        his = [j + half for j in los]
        if length < n:
            # hi of butterfly i takes ws[i]; ws[0] == 1 needs no product.
            targets = [j for j in his if j % length != half]
            twiddles = [ws[j % length - half] for j in targets]
        else:
            targets = los + his
            twiddles = [n_inv] * half + [w * n_inv % order for w in ws]
        scaled = glv.batch_mul(curve, [pts[j] for j in targets], twiddles)
        for j, pt in zip(targets, scaled):
            pts[j] = pt
        lo = [pts[j] for j in los]
        hi = [pts[j] for j in his]
        neg_hi = [None if q is None else (q[0], p - q[1]) for q in hi]
        for j, pt in zip(los + his, batch_add(p, lo + lo, hi + neg_hi)):
            pts[j] = pt
        length *= 2
    return pts


def _disk_key(key: _Key) -> str:
    return cache_key("fixedbase-" + key[0], *key[1:])


def _lookup(key: _Key, shape: tuple[str, int] | None = None):
    """Registry, then disk.  A disk entry that is not a table set of
    this window width -- and, when the caller knows them, of ``shape =
    (curve name, base count)`` -- is ignored, so it gets rebuilt over."""
    tables = _REGISTRY.get(key)
    if tables is None and _CACHE is not None:
        raw = _CACHE.get_bytes(_disk_key(key))
        if raw is not None:
            try:
                tables = pickle.loads(raw)
            except Exception:
                tables = None
            if not (
                isinstance(tables, FixedBaseTables)
                and tables.c == key[2]
                and shape in (None, (tables.curve_name, len(tables)))
            ):
                return None
            _REGISTRY[key] = tables
    if tables is not None:
        telemetry.incr("msm.fixed_base_table_hits")
    return tables


def tables_for_params(
    params: "PublicParams", c: int = FIXED_BASE_WINDOW, kind: str = MONOMIAL
) -> FixedBaseTables:
    """The (cached) ``kind`` table set of ``params``.

    Built on first use per parameter fingerprint -- once, however many
    threads ask at the same time -- registered in-process, and
    persisted through the attached artifact cache when one is
    configured.
    """
    key = (kind, params.fingerprint(), c)
    if key in _REGISTRY:
        return _lookup(key)
    with _LOCKS_GUARD:
        lock = _LOCKS.setdefault(key, threading.Lock())
    with lock:
        tables = _lookup(key, (params.curve.name, params.n + 2))
        if tables is None:
            extra = points_to_affine_tuples([params.w, params.u])
            if kind == MONOMIAL:
                bases = points_to_affine_tuples(list(params.g))
            else:
                bases = lagrange_bases(params)
            tables = build_tables(params.curve, bases + extra, c)
            _REGISTRY[key] = tables
            telemetry.incr("msm.fixed_base_table_builds")
            if _CACHE is not None:
                _CACHE.put_bytes(
                    _disk_key(key),
                    pickle.dumps(tables, protocol=pickle.HIGHEST_PROTOCOL),
                )
    return tables
