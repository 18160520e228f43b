"""Kernel equivalence: every optimized kernel must produce exactly what
a simpler oracle produces.

The kernel layer (batch-affine Pippenger, GLV splitting, fixed-base
tables, cached NTT plans) claims the *same group elements and field
vectors* as the textbook algorithms, so these tests compare each kernel
against an oracle one level simpler -- ``endo_mul`` against
double-and-add written here, the elementwise batch-affine addition and
the vectorised GLV ladder against ``Point`` ``+`` and ``*``, ``msm``
against ``msm_naive``, the
fixed-base and commitment paths against ``msm``, the plan NTT against
direct evaluation -- including the adversarial inputs (duplicate
points, inverse pairs, zero scalars, identity points) where affine
arithmetic has exceptional cases.
"""

import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.algebra import SCALAR_FIELD
from repro.algebra.domain import EvaluationDomain
from repro.algebra.fft_plan import NttPlan, ntt_in_place, plan_for
from repro.commit.ipa import commit_lagrange, commit_polynomial, commit_polynomials
from repro.ecc import PALLAS, VESTA
from repro.ecc import batch_affine, fixed_base, glv
from repro.ecc.curve import Point, points_to_affine_tuples
from repro.ecc.msm import msm
from tests.msm_oracle import msm_naive

# The module, not the ``msm`` function ``repro.ecc`` re-exports.
msm_kernel = importlib.import_module("repro.ecc.msm")
_TINY = msm_kernel._TINY_MSM

scalars = st.integers(min_value=0, max_value=SCALAR_FIELD.p - 1)


def _points(n, seed=1, curve=PALLAS):
    """A deterministic mix of distinct, duplicate, inverse, and
    identity points."""
    rng = random.Random(seed)
    g = curve.generator
    pts = []
    for i in range(n):
        kind = rng.randrange(8)
        if kind == 0 and pts:
            pts.append(pts[rng.randrange(len(pts))])  # duplicate
        elif kind == 1 and pts:
            pts.append(-pts[rng.randrange(len(pts))])  # inverse pair
        elif kind == 2:
            pts.append(curve.identity())
        else:
            pts.append(g * rng.randrange(1, curve.scalar_field.p))
    return pts


def _affine(points):
    """Batch-affine form: coordinates, ``None`` for the identity."""
    return [None if pt.is_identity() else pt.to_affine() for pt in points]


class TestBatchAffineMsm:
    @given(st.lists(scalars, min_size=2, max_size=24), st.integers(0, 2**32))
    @settings(max_examples=10, deadline=None)
    def test_matches_naive(self, sc, seed):
        pts = _points(len(sc), seed)
        assert msm(pts, sc) == msm_naive(pts, sc)

    def test_matches_naive_at_size(self):
        rng = random.Random(5)
        pts = _points(300, seed=5)
        sc = [rng.randrange(SCALAR_FIELD.p) for _ in pts]
        assert msm(pts, sc) == msm_naive(pts, sc)

    def test_all_zero_scalars(self):
        pts = _points(16)
        assert msm(pts, [0] * 16).is_identity()

    def test_cancelling_inputs(self):
        g = PALLAS.generator
        pts = [g, -g, g * 3]
        assert msm(pts, [7, 7, 0]).is_identity()


def _distinct(curve, n, seed):
    """``n`` random points, pairwise unrelated."""
    rng = random.Random(seed)
    return [curve.generator * rng.randrange(1, curve.scalar_field.p) for _ in range(n)]


def _short(rng, bits=96):
    """A scalar short enough that its GLV split is ``(s, 0)``, so its
    digits are the kernel's digits."""
    return rng.randrange(1, 1 << bits)


@pytest.mark.parametrize("c", list(msm_kernel._WINDOWS))
@pytest.mark.parametrize("curve", [PALLAS, VESTA], ids=lambda c: c.name)
class TestSignedDigitMsm:
    """The signed-digit kernel at every window width the rule can pick,
    against ``msm_naive``, on the inputs where signed recoding and the
    batch-affine lanes have edge cases."""

    @pytest.fixture(autouse=True)
    def force_window(self, monkeypatch, c):
        monkeypatch.setattr(msm_kernel, "_window_size", lambda m, bits: c)

    def check(self, points, sc):
        assert msm(points, sc) == msm_naive(points, sc)

    def test_special_scalars(self, curve, c):
        order = curve.scalar_field.p
        lam = glv.curve_endo(curve).lam
        special = [0, 1, order - 1, lam, order - lam]
        pts = _distinct(curve, 2 * len(special), seed=c)
        self.check(pts, special + special[::-1])

    def test_carries_reach_the_extra_window(self, curve, c):
        # Every unsigned digit above 2^(c-1): each becomes negative and
        # carries, the top one into the window past the scalar's width.
        # Digits of exactly 2^(c-1) stay positive and carry nothing.
        half, nw = 1 << (c - 1), 96 // c
        over = sum((half + 1) << (w * c) for w in range(nw))
        at = sum(half << (w * c) for w in range(nw))
        ones = (1 << (nw * c)) - 1
        endo = glv.curve_endo(curve)
        for s in (over, at, ones):
            assert glv.decompose(endo, s) == (s, 0)
        windows = msm_kernel._window_count(over.bit_length(), c)
        buckets = msm_kernel._signed_buckets(curve.field.p, [(1, 2, over)], c, windows)
        assert buckets[windows - 1], "no carry into the extra window"
        self.check(_distinct(curve, 9, seed=c), [over, at, ones] * 3)

    def test_both_glv_halves_negative(self, curve, c):
        endo = glv.curve_endo(curve)
        rng = random.Random(c)
        both = []
        while len(both) < _TINY:
            k = rng.randrange(curve.scalar_field.p)
            k1, k2 = glv.decompose(endo, k)
            if k1 < 0 and k2 < 0:
                both.append(k)
        self.check(_distinct(curve, len(both), seed=c + 1), both)

    def test_duplicate_points_share_buckets(self, curve, c):
        # Equal points with equal scalars land in the same buckets, so
        # the batch-affine fill doubles.
        rng = random.Random(c)
        pt = _distinct(curve, 1, seed=c)[0]
        s = rng.randrange(curve.scalar_field.p)
        self.check([pt] * _TINY + [-pt, pt], [s] * _TINY + [s, 2 * s])

    def test_inverse_points_cancel_in_lanes(self, curve, c):
        # Window 0 holds only P in bucket 3 and -P in bucket 2 (the
        # running lane cancels), or 2P in bucket 1 and -P in bucket 2
        # (the total lane cancels); the filler has no window-0 digit.
        rng = random.Random(c)
        pt, *filler = _distinct(curve, _TINY + 1, seed=c)
        rest = [_short(rng) << c for _ in filler]
        self.check([pt, -pt] + filler, [3, 2] + rest)
        self.check([pt, pt, -pt] + filler, [1, 1, 2] + rest)

    def test_windows_with_no_live_bucket(self, curve, c):
        rng = random.Random(c)
        pts = _distinct(curve, _TINY + 2, seed=c)
        gappy = [1 + (1 << 90), _short(rng, 40) << 60] * (len(pts) // 2)
        self.check(pts, gappy)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_pairs_around_the_tiny_cutoff(self, curve, c, n):
        rng = random.Random(n)
        pts = _distinct(curve, n, seed=100 + n)
        self.check(pts, [rng.randrange(curve.scalar_field.p) for _ in pts])


def _signed_digit_count(s, c):
    """Nonzero base-2^c digits of ``s`` in ``(-2^(c-1), 2^(c-1)]``."""
    count = 0
    while s:
        d = s % (1 << c)
        if d > 1 << (c - 1):
            d -= 1 << c
        count += d != 0
        s = (s - d) >> c
    return count


class TestMsmDigits:
    def test_counts_signed_digits_of_a_finalize_sized_msm(self):
        # Shaped like the verifier's finalize over a Q1 proof: 139
        # random bases, 139 full-width scalars.
        rng = random.Random(139)
        pts = _distinct(PALLAS, 139, seed=139)
        sc = [rng.randrange(SCALAR_FIELD.p) for _ in pts]
        previous = telemetry.enable(True)
        try:
            before = telemetry.counters_snapshot().get("msm.digits", 0)
            msm(pts, sc)
            digits = telemetry.counters_snapshot()["msm.digits"] - before
        finally:
            telemetry.enable(previous)
        entries = glv.split_entries(PALLAS, points_to_affine_tuples(pts), sc)
        bits = max(s.bit_length() for *_, s in entries)
        c = msm_kernel._window_size(len(entries), bits)
        assert digits == sum(_signed_digit_count(s, c) for *_, s in entries)
        # The unsigned c = 4 schedule this kernel replaced: one
        # insertion per nonzero nibble.
        unsigned = sum(
            (s >> shift) & 15 != 0
            for *_, s in entries
            for shift in range(0, s.bit_length(), 4)
        )
        assert digits <= 0.8 * unsigned


@pytest.mark.parametrize("curve", [PALLAS, VESTA], ids=lambda c: c.name)
class TestBatchAffineLanes:
    """The elementwise kernels the Lagrange-basis group FFT runs on."""

    def test_batch_add_matches_point_addition(self, curve):
        pts = _points(48, seed=21, curve=curve)
        rng = random.Random(22)
        g = pts[next(i for i, pt in enumerate(pts) if not pt.is_identity())]
        identity = curve.identity()
        # Random pairings from the mixed pool, then lanes whose operands
        # meet -- doubling and cancellation in the same batch -- and
        # identities on either side.
        a = pts + [g, g, -g, identity, g, identity]
        b = rng.sample(pts, len(pts)) + [g, -g, -g, g, identity, identity]
        got = batch_affine.batch_add(curve.field.p, _affine(a), _affine(b))
        assert got == _affine([x + y for x, y in zip(a, b)])


class TestGlv:
    def test_endo_exists_for_pasta(self):
        assert glv.curve_endo(PALLAS) is not None
        assert glv.curve_endo(VESTA) is not None

    def test_endo_is_lambda_mul(self):
        endo = glv.curve_endo(PALLAS)
        p = PALLAS.field.p
        rng = random.Random(11)
        for _ in range(10):
            q = PALLAS.generator * rng.randrange(1, SCALAR_FIELD.p)
            x, y = q.to_affine()
            phi_q = Point(PALLAS, endo.zeta * x % p, y)
            assert q * endo.lam == phi_q

    @given(scalars)
    @settings(max_examples=40, deadline=None)
    def test_decompose_round_trip_and_bounds(self, k):
        endo = glv.curve_endo(PALLAS)
        n = SCALAR_FIELD.p
        k1, k2 = glv.decompose(endo, k)
        assert (k1 + endo.lam * k2) % n == k % n
        # Halves are ~sqrt(n) ~ 128 bits (slack for rounding).
        assert abs(k1).bit_length() <= 130
        assert abs(k2).bit_length() <= 130

    @given(scalars)
    @settings(max_examples=15, deadline=None)
    def test_endo_mul_matches_double_and_add(self, k):
        if k == 0:
            return  # endo_mul's contract is a nonzero reduced scalar
        endo = glv.curve_endo(PALLAS)
        q = PALLAS.generator * 123457
        ref = PALLAS.identity()
        for bit in bin(k)[2:]:
            ref = ref.double()
            if bit == "1":
                ref = ref + q
        assert glv.endo_mul(q, k, endo) == ref


class TestFixedBase:
    def test_fixed_base_matches_generic(self, params_k6):
        tables = fixed_base.tables_for_params(params_k6)
        rng = random.Random(13)
        bases = list(params_k6.g) + [params_k6.w, params_k6.u]
        sc = [rng.randrange(SCALAR_FIELD.p) for _ in bases]
        assert fixed_base.fixed_base_msm(tables, sc) == msm(bases, sc)

    def test_subset_indices(self, params_k6):
        tables = fixed_base.tables_for_params(params_k6)
        idx = [3, 0, 17, params_k6.n]  # out-of-order g's plus w
        sc = [5, SCALAR_FIELD.p - 1, 0, 2**200]
        bases = [params_k6.g[3], params_k6.g[0], params_k6.g[17], params_k6.w]
        assert fixed_base.fixed_base_msm(tables, sc, idx) == msm(bases, sc)

    def test_zero_scalars_give_identity(self, params_k6):
        tables = fixed_base.tables_for_params(params_k6)
        assert fixed_base.fixed_base_msm(tables, [0, 0, 0]).is_identity()

    def test_commitments_match_generic_msm(self, params_k6):
        rng = random.Random(17)
        vals = [rng.randrange(SCALAR_FIELD.p) for _ in range(params_k6.n // 2)]
        blind = rng.randrange(SCALAR_FIELD.p)
        ref = msm(
            list(params_k6.g[: len(vals)]) + [params_k6.w], vals + [blind]
        )
        assert commit_lagrange(params_k6, vals, blind) == ref

    def test_fingerprint_distinguishes_truncation(self, params_k6):
        assert params_k6.fingerprint() != params_k6.truncated(5).fingerprint()
        assert params_k6.fingerprint() == params_k6.fingerprint()


def _halves_with_signs(curve, signs, seed=5):
    """A scalar whose GLV halves carry ``signs`` (``(+1, -1)`` etc.)."""
    endo = glv.curve_endo(curve)
    rng = random.Random(seed)
    while True:
        k = rng.randrange(curve.scalar_field.p)
        k1, k2 = glv.decompose(endo, k)
        if ((k1 > 0) - (k1 < 0), (k2 > 0) - (k2 < 0)) == signs:
            return k


class TestHalfScalarTables:
    """The table rows cover ``HALF_BITS``; wider scalars go through the
    GLV split onto the ``phi`` rows."""

    @pytest.mark.parametrize("curve", [PALLAS, VESTA], ids=lambda c: c.name)
    def test_half_scalar_bound_from_the_basis(self, curve):
        """Rounding against the short basis leaves each half at most
        half the basis coordinates it collects, below ``2^127`` and so
        inside the rows' ``HALF_BITS``."""
        endo = glv.curve_endo(curve)
        bound = max(abs(endo.a1) + abs(endo.a2), abs(endo.b1) + abs(endo.b2)) // 2
        assert glv.half_bound(endo) == bound
        assert bound < 1 << 127 <= 1 << (fixed_base.HALF_BITS - 1)
        n = curve.scalar_field.p
        rng = random.Random(3)
        ks = [0, 1, n - 1, endo.lam, n - endo.lam, (1 << 128) - 1, 1 << 128]
        ks += [rng.randrange(n) for _ in range(500)]
        for k in ks:
            k1, k2 = glv.decompose(endo, k)
            assert max(abs(k1), abs(k2)) <= bound, k
            assert (k1 + endo.lam * k2 - k) % n == 0, k

    @pytest.mark.parametrize("curve", [PALLAS, VESTA], ids=lambda c: c.name)
    def test_edge_scalars_match_naive(self, curve):
        endo = glv.curve_endo(curve)
        n = curve.scalar_field.p
        g = curve.generator
        points = [g * (7 + 13 * i) for i in range(9)]
        rng = random.Random(11)
        sc = [
            0, 1, n - 1, endo.lam, n - endo.lam, (1 << 128) - 1, 1 << 128,
            _halves_with_signs(curve, (-1, -1)),
            _halves_with_signs(curve, (1, -1)),
            _halves_with_signs(curve, (-1, 1)),
        ]
        sc += [rng.randrange(16), rng.randrange(1 << 32)]
        tables = fixed_base.build_tables(curve, points_to_affine_tuples(points))
        for s in sc:  # one scalar at a time, then all of them at once
            for i, pt in enumerate(points):
                got = fixed_base.fixed_base_msm(tables, [s], [i])
                assert got == msm_naive([pt], [s]), (s, i)
        chosen = [i % len(points) for i in range(len(sc))]
        assert fixed_base.fixed_base_msm(tables, sc, chosen) == msm_naive(
            [points[i] for i in chosen], sc
        )

    def test_indices_path_with_an_identity_entry(self):
        """What the IPA's cross terms pass: out-of-order indices, a
        repeated base, full-width and narrow scalars; the identity base
        contributes nothing."""
        g = PALLAS.generator
        points = [g * 3, PALLAS.identity(), g * 5, -(g * 3)]
        tables = fixed_base.build_tables(PALLAS, points_to_affine_tuples(points))
        assert tables.tables[1] == [None] * 2 * fixed_base.WINDOWS
        n = SCALAR_FIELD.p
        idx = [2, 1, 0, 3, 0, 1]
        sc = [n - 2, n - 1, 1 << 200, 9, _halves_with_signs(PALLAS, (-1, -1)), 7]
        assert fixed_base.fixed_base_msm(tables, sc, idx) == msm_naive(
            [points[i] for i in idx], sc
        )

    def test_build_runs_the_stated_doubling_passes(self, monkeypatch):
        passes = []
        real = fixed_base.batch_double

        def counting(p, pts):
            passes.append(len(pts))
            return real(p, pts)

        monkeypatch.setattr(fixed_base, "batch_double", counting)
        points = [PALLAS.generator * 11, PALLAS.generator * 12]
        tables = fixed_base.build_tables(PALLAS, points_to_affine_tuples(points))
        assert len(passes) == (tables.windows - 1) * tables.c
        assert len(passes) == fixed_base.BUILD_PASSES == 120
        assert passes == [2] * 120
        # 16 windows of P and 16 of phi(P): 32 points per base.
        assert [len(row) for row in tables.tables] == [32, 32]
        endo = glv.curve_endo(PALLAS)
        for pt, row in zip(points, tables.tables):
            for j in (0, 1, fixed_base.WINDOWS - 1):
                shifted = pt * (1 << (8 * j))
                assert row[j] == shifted.to_affine()
                assert row[fixed_base.WINDOWS + j] == (shifted * endo.lam).to_affine()


class TestTwoLevelCollapse:
    """``fixed_base_msm`` collapses its buckets by half-digit: every
    way the high / low sums can degenerate, against ``msm_naive``."""

    P = PALLAS.generator * 0xC0FFEE
    Q = PALLAS.generator * 0xFACADE

    @pytest.mark.parametrize(
        "points, sc",
        [
            ([P], [0x37]),  # one bucket
            ([P], [0x10]),  # high half only
            ([P], [0x0F]),  # low half only
            ([P], [0xFF]),
            ([P, Q], [0x30, 0x0A]),  # one high sum, one low sum, disjoint
            ([P, -P], [0x21, 0x23]),  # a high sum that cancels to the identity
            ([P, -P], [0x12, 0x32]),  # a low sum that cancels
            ([P, P], [0x21, 0x23]),  # a high sum of equal points (doubling)
            ([P, P], [0x12, 0x32]),  # a low sum of equal points
            ([P, -P], [0x55, 0x55]),  # the bucket itself cancels
            ([P, Q], [0, 0]),
            ([P, Q, P, -Q], [2**254 + 0x1F0F, 0xFFFF, 0x100, 0xF0F0F0]),
        ],
    )
    def test_degenerate_half_digit_sums(self, points, sc):
        tables = fixed_base.build_tables(PALLAS, points_to_affine_tuples(points))
        assert fixed_base.fixed_base_msm(tables, sc) == msm_naive(points, sc)

    @pytest.mark.parametrize("width", [4, 255])
    def test_column_with_blinding_tail(self, params_k6, width):
        # What the prover commits: values of one width on the usable
        # rows, ZK_ROWS full-width blinding rows, then the blind on w.
        from repro.plonkish.assignment import ZK_ROWS

        rng = random.Random(width)
        n, p = params_k6.n, SCALAR_FIELD.p
        column = [rng.randrange(1 << width) % p for _ in range(n - ZK_ROWS)]
        column += [rng.randrange(p) for _ in range(ZK_ROWS + 1)]
        bases = list(params_k6.g) + [params_k6.w]
        tables = fixed_base.tables_for_params(params_k6)
        assert fixed_base.fixed_base_msm(tables, column) == msm_naive(
            bases, column
        )


class TestNttPlans:
    @given(st.integers(2, 6), st.integers(0, 2**32))
    @settings(max_examples=10, deadline=None)
    def test_plan_matches_direct_evaluation(self, k, seed):
        """The transform IS evaluation at omega^i; check it the O(n^2)
        way."""
        field = SCALAR_FIELD
        p = field.p
        n = 1 << k
        omega = field.root_of_unity_of_order(n)
        rng = random.Random(seed)
        vec = [rng.randrange(p) for _ in range(n)]
        got = list(vec)
        ntt_in_place(got, plan_for(n, omega, p))
        ref = []
        for i in range(n):
            x = pow(omega, i, p)
            acc = 0
            for coeff in reversed(vec):
                acc = (acc * x + coeff) % p
            ref.append(acc)
        assert got == ref

    @pytest.mark.parametrize("k", [8, 9, 10, 11])
    def test_domain_round_trip(self, field, k):
        """k = 11 crosses the numpy engine's NTT size threshold, so the
        round trip covers both sides of the plan/numpy split."""
        dom = EvaluationDomain(field, k)
        rng = random.Random(29 + k)
        vec = [rng.randrange(field.p) for _ in range(dom.size)]
        assert dom.ifft(dom.fft(vec)) == vec
        assert dom.coset_ifft(dom.coset_fft(vec, 5), 5) == vec

    def test_plan_size_validation(self):
        with pytest.raises(ValueError):
            NttPlan(6, 1, 97)
        plan = plan_for(4, SCALAR_FIELD.root_of_unity_of_order(4), SCALAR_FIELD.p)
        with pytest.raises(ValueError):
            ntt_in_place([1, 2], plan)


class TestBatchedMatchesSingle:
    """The batched entry points are loops over the single-call kernels."""

    def test_fft_many_and_ifft_many(self, field):
        dom = EvaluationDomain(field, 8)
        rng = random.Random(41)
        vecs = [
            [rng.randrange(field.p) for _ in range(n)] for n in (dom.size, 5)
        ]
        evals = dom.fft_many(vecs)
        assert evals == [dom.fft(v) for v in vecs]
        assert dom.ifft_many(evals) == [dom.ifft(e) for e in evals]

    def test_commit_polynomials(self, params_k6):
        rng = random.Random(37)
        items = [
            ([rng.randrange(SCALAR_FIELD.p) for _ in range(n)], rng.randrange(9))
            for n in (params_k6.n, 3)
        ]
        assert commit_polynomials(params_k6, items) == [
            commit_polynomial(params_k6, coeffs, blind) for coeffs, blind in items
        ]
