"""Fixed-base MSM over precomputed window tables.

Every Pedersen/IPA commitment in a proving session is an MSM against
the *same* bases: the public-parameter generators ``G_i`` -- the
Lagrange basis of the size-``n`` evaluation domain, so a vector is
committed by its values on that domain -- plus the blinding base ``W``,
the inner-product base ``U`` and ``G_sum = sum_i G_i``, on which a
column's most frequent value is paid once.  Those bases never change, so
the doubling chains that dominate a generic Pippenger run can be paid
once: for window width ``c`` we precompute the shifted bases
``B[i][j] = 2^(j*c) * base_i`` for every window ``j``.

The windows cover :data:`HALF_BITS` = 128 bits, not the full 255: a
wider scalar is split by the curve's cube-root endomorphism
(:mod:`repro.ecc.glv`) into two halves below ``2^128``,
``s = k1 + lambda * k2``, and ``lambda * B`` is
``phi(B) = (zeta * x, y)``.  So each base's row carries the 16 windows
of ``B`` and then the same 16 of ``phi(B)``, at one field product per
``phi`` entry, and building the rows takes (16 - 1) * 8 = 120 batch
doublings (:data:`BUILD_PASSES`) instead of the 248 that 32 full-width
windows would.  Values below ``2^128`` -- every narrow column -- skip
the split.

A commitment then needs **zero doublings**: each scalar's (or half's)
base-``2^c`` digits index straight into one shared bucket set (all
shifted bases are plain affine points, so windows do not need separate
buckets), the buckets are reduced with one batch-affine accumulation
(:func:`~repro.ecc.batch_affine.sum_affine_lists`), and a two-level
collapse finishes the job: the same batched addition folds the 255
buckets into 15 + 15 half-digit sums, and only those go through a
Jacobian running sum.  The unit of work is the
*nonzero digit*, not the point: a 4-bit value costs one bucket
insertion where a full-width scalar costs 32 (16 per half), which is
why every column is committed by its values.

Tables are keyed by the :meth:`~repro.commit.params.PublicParams.fingerprint`
of the parameter set (one table set per set; its layout is stated
once, at the registry below) in a process-local registry, which
forked service runners inherit.  Persisting a table set across runs
is the session's business (:func:`repro.commit.params.cached_tables`):
it stores :meth:`FixedBaseTables.to_bytes` (the ``B`` windows only;
the ``phi`` ones are derived again on load), loads through
:meth:`FixedBaseTables.from_bytes` and :func:`check_tables`, and
registers the result with :func:`register`.  The result of an MSM is
always the same group element the generic :func:`~repro.ecc.msm.msm`
would produce -- only the schedule differs.
"""

from __future__ import annotations

import os
import random
import threading
from collections import defaultdict
from typing import TYPE_CHECKING, Sequence

from repro import telemetry
from repro.ecc import glv
from repro.ecc.batch_affine import batch_double, sum_affine_lists
from repro.ecc.curve import Curve, Point, curve_by_name, points_to_affine_tuples

if TYPE_CHECKING:  # pragma: no cover
    from repro.commit.params import PublicParams

#: Window width for the shifted-base tables: one byte, so a scalar's
#: digits are its little-endian bytes and the shared bucket set has
#: 255 buckets.
FIXED_BASE_WINDOW = 8

#: Width of the scalars the table rows cover.  A scalar below
#: ``2^HALF_BITS`` is used as it is; a wider one is split by
#: :func:`~repro.ecc.glv.decompose` into two halves that
#: :func:`~repro.ecc.glv.half_bound` keeps below ``2^127`` on both Pasta
#: curves (checked when a table set is made).
HALF_BITS = 128

#: Windows per half: ``2^(j*c) * P`` for ``j < WINDOWS``.  A base's
#: row holds them and then the same windows of ``phi(P)``, so
#: ``2 * WINDOWS`` affine points (32, ~2 KiB of coordinates) per base
#: in memory.
WINDOWS = HALF_BITS // FIXED_BASE_WINDOW

#: Batch-doubling passes of one :func:`build_tables` run, however many
#: bases there are.
BUILD_PASSES = (WINDOWS - 1) * FIXED_BASE_WINDOW

_HALF_BYTES = HALF_BITS // 8

#: Stored entries :func:`check_tables` recomputes from the parameters.
SPOT_CHECKS = 4


class FixedBaseTables:
    """Shifted window multiples of a fixed base vector and of its
    endomorphism image.

    ``tables[i][j]`` is the affine ``(x, y)`` of ``2^(j*c) * base_i``
    (``None`` when the base is the identity) for ``j <`` :data:`WINDOWS`,
    and ``tables[i][WINDOWS + j]`` is ``phi`` of that entry,
    ``(zeta * x, y)``.  The constructor takes the first halves and
    derives the ``phi`` halves, one product per entry.  Plain data, so
    tables cross fork boundaries as they are; on disk only the first
    halves are stored, in the typed form of :meth:`to_bytes`.
    """

    __slots__ = ("curve_name", "tables")

    c = FIXED_BASE_WINDOW
    windows = WINDOWS

    def __init__(self, curve_name: str, halves: list):
        curve = curve_by_name(curve_name)
        endo = glv.curve_endo(curve)
        if endo is None or glv.half_bound(endo) >> (HALF_BITS - 1):
            raise ValueError(
                f"{curve_name} has no endomorphism splitting scalars "
                f"into {HALF_BITS}-bit halves"
            )
        p, zeta = curve.field.p, endo.zeta
        self.curve_name = curve_name
        self.tables = [
            row + [None if xy is None else (zeta * xy[0] % p, xy[1]) for xy in row]
            for row in halves
        ]

    def __len__(self) -> int:
        return len(self.tables)

    def to_bytes(self) -> bytes:
        """Curve name (u8 length, then the name), ``c`` and the window
        count (u8 each), the base count (u32-le), then the first
        :data:`WINDOWS` entries of every row, base by base, as
        little-endian ``x || y``; the identity is all zeros (never an
        affine point when ``b != 0``).  The ``phi`` halves are not
        stored."""
        size = curve_by_name(self.curve_name).field._byte_length
        name = self.curve_name.encode()
        zero = bytes(2 * size)
        out = [
            bytes([len(name)]), name, bytes([self.c, self.windows]),
            len(self.tables).to_bytes(4, "little"),
        ]
        for row in self.tables:
            out.extend(
                zero if xy is None
                else xy[0].to_bytes(size, "little") + xy[1].to_bytes(size, "little")
                for xy in row[: self.windows]
            )
        return b"".join(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "FixedBaseTables":
        """Strict inverse of :meth:`to_bytes`: ``ValueError`` on a bad
        header or length (a set of another window layout, such as the
        32 full-width windows of older files, included), a
        non-canonical coordinate (``>= p``) or an entry off the curve."""
        if not data or len(data) < data[0] + 7:
            raise ValueError("truncated fixed-base table header")
        end = 1 + data[0]
        curve = curve_by_name(data[1:end].decode())
        c, windows = data[end], data[end + 1]
        count = int.from_bytes(data[end + 2 : end + 6], "little")
        if (c, windows) != (cls.c, cls.windows):
            raise ValueError(
                f"table layout c = {c} over {windows} windows is not "
                f"c = {cls.c} over {cls.windows}"
            )
        size = curve.field._byte_length
        body = memoryview(data)[end + 6 :]
        if len(body) != count * windows * 2 * size:
            raise ValueError("fixed-base table body has the wrong length")
        p, b = curve.field.p, curve.b
        entries: list = []
        for off in range(0, len(body), 2 * size):
            x = int.from_bytes(body[off : off + size], "little")
            y = int.from_bytes(body[off + size : off + 2 * size], "little")
            if x == 0 and y == 0:
                entries.append(None)
            elif x >= p or y >= p:
                raise ValueError("non-canonical fixed-base table coordinate")
            elif (y * y - x * x * x - b) % p:
                raise ValueError(f"fixed-base table entry is not on {curve.name}")
            else:
                entries.append((x, y))
        tables = [
            entries[i * windows : (i + 1) * windows] for i in range(count)
        ]
        return cls(curve.name, tables)


def build_tables(curve: Curve, coords: Sequence) -> FixedBaseTables:
    """Precompute shifted window bases for the affine points ``coords``
    (the identity as ``None`` or ``(0, 0)``).

    Pure doublings: the whole base vector is doubled ``c`` times per
    window with elementwise batch-affine passes (one shared inversion
    each), so building costs :data:`BUILD_PASSES` (120) batch passes
    however many bases there are; the ``phi`` halves cost one product
    per entry.
    """
    p = curve.field.p
    vec = [None if xy == (0, 0) else xy for xy in coords]
    shifted = [vec]
    for _ in range(WINDOWS - 1):
        for _ in range(FIXED_BASE_WINDOW):
            vec = batch_double(p, vec)
        shifted.append(vec)
    return FixedBaseTables(curve.name, [list(row) for row in zip(*shifted)])


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

    A scalar below ``2^HALF_BITS`` puts its bytes on the base's own
    row.  A wider one is split so that both halves are non-negative:
    :func:`~repro.ecc.glv.decompose` of ``s - (1 + lambda) * 2^127``
    gives ``r1 + lambda * r2`` with ``|r1|, |r2| < 2^127``, so
    ``s = (2^127 + r1) + lambda * (2^127 + r2)`` with both halves in
    ``[0, 2^128)``, whose 32 bytes index the row's 16 ``P`` windows
    and then its 16 ``phi(P)`` ones; no entry is ever negated.
    """
    curve = curve_by_name(tables.curve_name)
    order = curve.scalar_field.p
    endo = glv.curve_endo(curve)
    mid = 1 << (HALF_BITS - 1)
    shift = (1 + endo.lam) * mid % order
    both = mid + (mid << HALF_BITS)
    rows = tables.tables
    buckets: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)
    live = 0
    if indices is None:
        indices = range(len(scalars))
    for idx, s in zip(indices, scalars):
        s %= order
        if not s:
            continue
        live += 1
        row = rows[idx]
        if row[0] is None:  # the identity base: no entry to insert
            continue
        if s < 256:  # one digit, the common narrow-column value
            buckets[s].append(row[0])
            continue
        if s >> HALF_BITS:
            r1, r2 = glv.decompose(endo, (s - shift) % order)
            digits = (both + r1 + (r2 << HALF_BITS)).to_bytes(2 * _HALF_BYTES, "little")
        else:
            digits = s.to_bytes(_HALF_BYTES, "little")
        for d, pt in zip(digits, row):
            if d:
                buckets[d].append(pt)
    telemetry.incr("msm.fixed_base_calls")
    telemetry.incr("msm.fixed_base_points", live)
    # Bucket insertions: the kernel's unit of work (points times the
    # nonzero base-2^c digits of their scalars or halves).
    telemetry.incr(
        "msm.fixed_base_digits", sum(len(pts) for pts in buckets.values())
    )
    if not buckets:
        return curve.identity()
    p = curve.field.p
    sum_affine_lists(p, list(buckets.values()))
    # Two-level collapse of sum_d d * bucket[d].  With d = hi * 2^h + lo
    # that is 2^h * sum_hi hi * H[hi] + sum_lo lo * L[lo], where H / L
    # add up the buckets that share a high / low half-digit.  Forming H
    # and L is more of the batched affine addition that filled the
    # buckets; what is left for Jacobian arithmetic is two running sums
    # over at most 2^h - 1 entries each, instead of one over 2^c - 1.
    half = FIXED_BASE_WINDOW // 2
    low = (1 << half) - 1
    his: dict[int, list[tuple[int, int]]] = {}
    los: dict[int, list[tuple[int, int]]] = {}
    for d, pts in buckets.items():
        if pts:  # a bucket whose points cancelled is empty
            if d >> half:
                his.setdefault(d >> half, []).append(pts[0])
            if d & low:
                los.setdefault(d & low, []).append(pts[0])
    sum_affine_lists(p, [*his.values(), *los.values()])
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

#: A parameter set has one table set of ``n + 3`` bases: index ``i < n``
#: is ``g[i]``, index ``n`` is the blinding base ``w``, ``n + 1`` is
#: ``u`` and ``n + 2`` is ``G_sum = sum_i g[i]``, the base a column's
#: commitment offset goes on (:func:`repro.commit.ipa.commit_lagrange`).
#: ``G_sum`` is derived here, never stored in the parameters.
TAIL_BASES = 3

_Key = tuple[str, int]  # (params fingerprint, window width)

#: Process-local tables.  A forked service runner inherits whatever
#: the parent built or loaded before the fork (the session loads them
#: when it opens, the service builds them if it has not); a later miss
#: builds in the runner.
_REGISTRY: dict[_Key, FixedBaseTables] = {}

#: One build lock per table set, so concurrent first users (service
#: workers, verifier threads) build it once; ``_LOCKS_GUARD``
#: covers the lock table itself.
_LOCKS: dict[_Key, threading.Lock] = {}
_LOCKS_GUARD = threading.Lock()


def _new_locks_after_fork() -> None:
    # A parent thread may have held any of these at the fork; in the
    # child nothing would ever release them.
    global _LOCKS, _LOCKS_GUARD
    _LOCKS, _LOCKS_GUARD = {}, threading.Lock()


os.register_at_fork(after_in_child=_new_locks_after_fork)


def clear_registry() -> None:
    """Drop every in-process table (tests)."""
    _REGISTRY.clear()


def _bases(params: "PublicParams") -> list:
    """The table set's bases in registry order; ``G_sum`` is summed
    from ``g`` in one batch-affine pass (``k`` shared inversions)."""
    bases = points_to_affine_tuples([*params.g, params.w, params.u])
    total = [bases[: params.n]]
    sum_affine_lists(params.curve.field.p, total)
    return [*bases, total[0][0] if total[0] else (0, 0)]


def spot_positions(
    params: "PublicParams", windows: int
) -> list[tuple[int, int]]:
    """The ``(base, window)`` entries :func:`check_tables` recomputes:
    :data:`SPOT_CHECKS` of them past window 0, seeded by the parameter
    fingerprint."""
    rng = random.Random(params.fingerprint())
    return [
        (rng.randrange(params.n + TAIL_BASES), rng.randrange(1, windows))
        for _ in range(SPOT_CHECKS)
    ]


def check_tables(params: "PublicParams", tables: FixedBaseTables) -> FixedBaseTables:
    """``tables`` if it looks like the table set of ``params``, else
    ``ValueError``: same curve and base count (the window layout is the
    class's own, which :meth:`FixedBaseTables.from_bytes` enforces),
    window 0 the parameter bases, and every entry at
    :func:`spot_positions` equal to ``2^(j*c) * base_i`` recomputed by
    doubling.  The ``phi`` halves are derived from these entries, so
    they need no check of their own.

    This catches a foreign, stale or damaged set, not a crafted one:
    the spot positions follow from the public fingerprint, so whoever
    can write the cache directory can alter every other entry to
    another curve point and pass.  The cache directory must be trusted;
    a full check would cost about as much as a rebuild."""
    c = FIXED_BASE_WINDOW
    bases = _bases(params)
    if (tables.curve_name, len(tables)) != (params.curve.name, len(bases)):
        raise ValueError(
            f"table set is {tables.curve_name} over {len(tables)} bases, "
            f"not {params.curve.name} over {len(bases)}"
        )
    if [row[0] or (0, 0) for row in tables.tables] != bases:
        raise ValueError("table window 0 is not the parameter bases")
    for i, j in spot_positions(params, tables.windows):
        pt = Point(params.curve, *bases[i])
        for _ in range(j * c):
            pt = pt.double()
        if (tables.tables[i][j] or (0, 0)) != pt.to_affine():
            raise ValueError(f"table entry ({i}, {j}) is not 2^{j * c} * base")
    return tables


def registered(params: "PublicParams") -> FixedBaseTables | None:
    """The table set of ``params`` if the registry holds it (no build)."""
    return _REGISTRY.get((params.fingerprint(), FIXED_BASE_WINDOW))


def register(params: "PublicParams", tables: FixedBaseTables) -> FixedBaseTables:
    """Serve ``tables`` (already checked against ``params``) from the
    registry; a set registered first wins."""
    return _REGISTRY.setdefault((params.fingerprint(), tables.c), tables)


def tables_for_params(params: "PublicParams") -> FixedBaseTables:
    """The registered table set of ``params``, built on first use per
    parameter fingerprint -- once, however many threads ask at the
    same time."""
    key = (params.fingerprint(), FIXED_BASE_WINDOW)
    tables = _REGISTRY.get(key)
    if tables is None:
        with _LOCKS_GUARD:
            lock = _LOCKS.setdefault(key, threading.Lock())
        with lock:
            tables = _REGISTRY.get(key)
            if tables is None:
                tables = build_tables(params.curve, _bases(params))
                _REGISTRY[key] = tables
                telemetry.incr("msm.fixed_base_table_builds")
    return tables
