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

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import SCALAR_FIELD
from repro.algebra.domain import EvaluationDomain
from repro.algebra.fft_plan import NttPlan, ntt_in_place, plan_for
from repro.commit.ipa import commit_polynomial, commit_polynomials
from repro.commit.pedersen import pedersen_commit
from repro.ecc import PALLAS, VESTA
from repro.ecc import batch_affine, fixed_base, glv
from repro.ecc.curve import Point, points_to_affine_tuples
from repro.ecc.msm import msm
from tests.msm_oracle import msm_naive

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

    def test_batch_mul_matches_point_multiplication(self, curve):
        order = curve.scalar_field.p
        lam = glv.curve_endo(curve).lam
        rng = random.Random(23)
        special = [0, 1, 2, order - 1, lam, order - lam, order + 5]
        pts = _points(12, seed=24, curve=curve)
        lanes = [(pt, s) for pt in pts for s in special]
        lanes += [(pt, rng.randrange(order)) for pt in pts for _ in range(2)]
        lanes += [(pt, rng.randrange(1 << 20)) for pt in pts[:4]]  # short
        got = glv.batch_mul(
            curve, _affine([pt for pt, _ in lanes]), [s for _, s in lanes]
        )
        assert got == _affine([pt * s for pt, s in lanes])

    def test_batch_mul_of_nothing(self, curve):
        assert glv.batch_mul(curve, [], []) == []


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
        assert pedersen_commit(params_k6, vals, blind) == ref
        assert commit_polynomial(params_k6, vals, blind) == ref

    def test_fingerprint_distinguishes_truncation(self, params_k6):
        assert params_k6.fingerprint() != params_k6.truncated(5).fingerprint()
        assert params_k6.fingerprint() == params_k6.fingerprint()


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

    @pytest.mark.parametrize("engine", ["python", "numpy"])
    @pytest.mark.parametrize("width", [4, 255])
    def test_column_with_blinding_tail(self, params_k6, engine, width):
        # What the prover commits: values of one width on the usable
        # rows, ZK_ROWS full-width blinding rows, then the blind on w.
        from repro.algebra import backend
        from repro.plonkish.assignment import ZK_ROWS

        rng = random.Random(width)
        n, p = params_k6.n, SCALAR_FIELD.p
        column = [rng.randrange(1 << width) % p for _ in range(n - ZK_ROWS)]
        column += [rng.randrange(p) for _ in range(ZK_ROWS + 1)]
        bases = list(params_k6.g) + [params_k6.w]
        with backend.backend(engine):
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
