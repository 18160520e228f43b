"""Fixed-base MSM over precomputed window tables.

Every Pedersen/IPA commitment in a proving session is an MSM against
the *same* bases: the public-parameter generators ``G_i`` -- the
Lagrange basis of the size-``n`` evaluation domain, so a vector is
committed by its values on that domain -- plus the blinding base ``W``
and the inner-product base ``U``.  Those bases never change, so
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
*nonzero digit*, not the point: a 4-bit value costs one bucket
insertion where a full-width scalar costs 32, which is why every
column is committed by its values.

Tables are keyed by the :meth:`~repro.commit.params.PublicParams.fingerprint`
of the parameter set (one table set per set; its layout is stated
once, at the registry below) in a process-local registry, which
forked service runners inherit.  Persisting a table set across runs
is the session's business (:func:`repro.commit.params.cached_tables`):
it stores :meth:`FixedBaseTables.to_bytes`, loads through
:meth:`FixedBaseTables.from_bytes` and :func:`check_tables`, and
registers the result with :func:`register`.  The result of an MSM is
always the same group element the generic :func:`~repro.ecc.msm.msm`
would produce -- only the schedule differs.
"""

from __future__ import annotations

import os
import random
import threading
from typing import TYPE_CHECKING, Sequence

from repro import telemetry
from repro.ecc.batch_affine import batch_double, sum_affine_lists
from repro.ecc.curve import Curve, Point, curve_by_name, points_to_affine_tuples

if TYPE_CHECKING:  # pragma: no cover
    from repro.commit.params import PublicParams

#: Window width for the shifted-base tables.  Memory per base is
#: ``ceil(255 / c)`` affine points; c = 8 keeps that at 32 points
#: (~2 KiB) per base while the shared bucket set stays small (255
#: buckets) next to the number of digit insertions.
FIXED_BASE_WINDOW = 8

#: Stored entries :func:`check_tables` recomputes from the parameters.
SPOT_CHECKS = 4


class FixedBaseTables:
    """Shifted window multiples of a fixed base vector.

    ``tables[i][j]`` is the affine ``(x, y)`` of ``2^(j*c) * base_i``
    (``None`` when the multiple is the identity).  Plain data, so
    tables cross fork boundaries as they are; on disk they take the
    typed form of :meth:`to_bytes`.
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

    def to_bytes(self) -> bytes:
        """Curve name (u8 length, then the name), ``c`` and the window
        count (u8 each), the base count (u32-le), then every entry base
        by base as little-endian ``x || y``; the identity is all zeros
        (never an affine point when ``b != 0``)."""
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
                for xy in row
            )
        return b"".join(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "FixedBaseTables":
        """Strict inverse of :meth:`to_bytes`: ``ValueError`` on a bad
        header or length, a non-canonical coordinate (``>= p``) or an
        entry off the curve."""
        if not data or len(data) < data[0] + 7:
            raise ValueError("truncated fixed-base table header")
        end = 1 + data[0]
        curve = curve_by_name(data[1:end].decode())
        c, windows = data[end], data[end + 1]
        count = int.from_bytes(data[end + 2 : end + 6], "little")
        if c < 1 or windows != -(-curve.scalar_field.p.bit_length() // c):
            raise ValueError(f"window count {windows} does not fit c = {c}")
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
        return cls(curve.name, c, windows, tables)


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

#: A parameter set has one table set of ``n + 2`` bases: index ``i < n``
#: is ``g[i]``, index ``n`` is the blinding base ``w`` and ``n + 1`` is
#: ``u``.
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
    return points_to_affine_tuples([*params.g, params.w, params.u])


def spot_positions(
    params: "PublicParams", windows: int
) -> list[tuple[int, int]]:
    """The ``(base, window)`` entries :func:`check_tables` recomputes:
    :data:`SPOT_CHECKS` of them past window 0, seeded by the parameter
    fingerprint."""
    rng = random.Random(params.fingerprint())
    return [
        (rng.randrange(params.n + 2), rng.randrange(1, windows))
        for _ in range(SPOT_CHECKS)
    ]


def check_tables(params: "PublicParams", tables: FixedBaseTables) -> FixedBaseTables:
    """``tables`` if it looks like the table set of ``params`` at width
    :data:`FIXED_BASE_WINDOW`, else ``ValueError``: same curve, width
    and base count, window 0 the parameter bases, and every entry at
    :func:`spot_positions` equal to ``2^(j*c) * base_i`` recomputed by
    doubling.

    This catches a foreign, stale or damaged set, not a crafted one:
    the spot positions follow from the public fingerprint, so whoever
    can write the cache directory can alter every other entry to
    another curve point and pass.  The cache directory must be trusted;
    a full check would cost about as much as a rebuild."""
    c = FIXED_BASE_WINDOW
    bases = _bases(params)
    if (tables.curve_name, tables.c, len(tables)) != (
        params.curve.name, c, len(bases)
    ):
        raise ValueError(
            f"table set is {tables.curve_name} c={tables.c} over "
            f"{len(tables)} bases, not {params.curve.name} c={c} over "
            f"{len(bases)}"
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


def tables_for_params(
    params: "PublicParams", c: int = FIXED_BASE_WINDOW
) -> FixedBaseTables:
    """The registered table set of ``params``, built on first use per
    parameter fingerprint -- once, however many threads ask at the
    same time."""
    key = (params.fingerprint(), c)
    tables = _REGISTRY.get(key)
    if tables is None:
        with _LOCKS_GUARD:
            lock = _LOCKS.setdefault(key, threading.Lock())
        with lock:
            tables = _REGISTRY.get(key)
            if tables is None:
                tables = build_tables(params.curve, _bases(params), c)
                _REGISTRY[key] = tables
                telemetry.incr("msm.fixed_base_table_builds")
                return tables
    telemetry.incr("msm.fixed_base_table_hits")
    return tables
