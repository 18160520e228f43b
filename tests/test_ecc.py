"""Pasta curve group laws, serialization, hash-to-curve, and MSM."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import BASE_FIELD, SCALAR_FIELD
from repro.ecc import PALLAS, VESTA, Point, msm
from repro.ecc.curve import batch_to_affine
from tests.msm_oracle import msm_naive

scalars = st.integers(min_value=0, max_value=SCALAR_FIELD.p - 1)


class TestCurveParameters:
    def test_pallas_vesta_form_a_cycle(self):
        # order(Pallas) = |Fq| and order(Vesta) = |Fp|.
        assert PALLAS.field is BASE_FIELD
        assert PALLAS.scalar_field is SCALAR_FIELD
        assert VESTA.field is SCALAR_FIELD
        assert VESTA.scalar_field is BASE_FIELD

    @pytest.mark.parametrize("curve", [PALLAS, VESTA])
    def test_generator_on_curve_with_correct_order(self, curve):
        g = curve.generator
        assert g.is_on_curve()
        assert (g * curve.scalar_field.p).is_identity()
        assert not (g * 2).is_identity()

    def test_invalid_point_rejected(self):
        with pytest.raises(ValueError):
            PALLAS.point(1, 1)


class TestGroupLaw:
    @given(a=scalars, b=scalars)
    @settings(max_examples=15, deadline=None)
    def test_scalar_mul_is_homomorphic(self, a, b):
        g = PALLAS.generator
        assert g * a + g * b == g * ((a + b) % SCALAR_FIELD.p)

    def test_double_equals_add(self):
        g = PALLAS.generator * 7
        assert g.double() == g + g

    def test_identity_behaviour(self):
        g = PALLAS.generator
        ident = PALLAS.identity()
        assert (g + ident) == g
        assert (ident + g) == g
        assert (g - g).is_identity()
        assert ident.double().is_identity()
        assert (ident * 5).is_identity()
        assert (g * 0).is_identity()

    def test_negation(self):
        g = PALLAS.generator * 13
        assert (g + (-g)).is_identity()
        assert -PALLAS.identity() == PALLAS.identity()

    def test_mixed_curves_rejected(self):
        with pytest.raises(ValueError):
            _ = PALLAS.generator + VESTA.generator

    def test_associativity_sample(self):
        g = PALLAS.generator
        a, b, c = g * 3, g * 1717, g * 99
        assert (a + b) + c == a + (b + c)


class TestSerialization:
    def test_roundtrip(self):
        pt = PALLAS.generator * 424242
        assert Point.from_bytes(PALLAS, pt.to_bytes()) == pt

    def test_identity_roundtrip(self):
        ident = PALLAS.identity()
        assert Point.from_bytes(PALLAS, ident.to_bytes()).is_identity()

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            Point.from_bytes(PALLAS, b"\x00" * 7)

    def test_tampered_encoding_rejected(self):
        data = bytearray((PALLAS.generator * 3).to_bytes())
        data[0] ^= 1
        with pytest.raises(ValueError):
            Point.from_bytes(PALLAS, bytes(data))

    def test_noncanonical_coordinate_rejected(self):
        # x + p is the same residue but a different byte string; the
        # decoder must admit exactly one encoding per point.
        x, y = (PALLAS.generator * 3).to_affine()
        p = PALLAS.field.p
        good = x.to_bytes(32, "little") + y.to_bytes(32, "little")
        assert Point.from_bytes(PALLAS, good) == PALLAS.generator * 3
        for bad in (
            (x + p).to_bytes(32, "little") + y.to_bytes(32, "little"),
            x.to_bytes(32, "little") + (y + p).to_bytes(32, "little"),
        ):
            with pytest.raises(ValueError, match="non-canonical"):
                Point.from_bytes(PALLAS, bad)

    def test_batch_to_affine(self, rng):
        points = [PALLAS.generator * rng.randrange(1, 10**9) for _ in range(9)]
        points.append(PALLAS.identity())
        affine = batch_to_affine(points)
        for pt, xy in zip(points, affine):
            assert pt.to_affine() == xy


class TestHashToCurve:
    def test_points_valid_and_distinct(self):
        seen = set()
        for i in range(8):
            pt = PALLAS.hash_to_curve(b"domain", str(i).encode())
            assert pt.is_on_curve()
            assert not pt.is_identity()
            seen.add(pt.to_affine())
        assert len(seen) == 8

    def test_deterministic(self):
        a = PALLAS.hash_to_curve(b"d", b"m")
        b = PALLAS.hash_to_curve(b"d", b"m")
        assert a == b

    def test_domain_separation(self):
        assert PALLAS.hash_to_curve(b"d1", b"m") != PALLAS.hash_to_curve(b"d2", b"m")


class TestMsm:
    def test_matches_naive(self, rng):
        points = [PALLAS.generator * rng.randrange(1, 1000) for _ in range(40)]
        sc = [rng.randrange(SCALAR_FIELD.p) for _ in range(40)]
        assert msm(points, sc) == msm_naive(points, sc)

    def test_small_sizes(self, rng):
        for size in (1, 2, 3, 5):
            points = [PALLAS.generator * (i + 1) for i in range(size)]
            sc = [rng.randrange(SCALAR_FIELD.p) for _ in range(size)]
            assert msm(points, sc) == msm_naive(points, sc)

    def test_zero_scalars(self):
        points = [PALLAS.generator, PALLAS.generator * 2]
        assert msm(points, [0, 0]).is_identity()

    def test_identity_points_skipped(self):
        points = [PALLAS.identity(), PALLAS.generator]
        assert msm(points, [5, 3]) == PALLAS.generator * 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            msm([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            msm([PALLAS.generator], [1, 2])
