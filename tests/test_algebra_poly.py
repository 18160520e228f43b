"""Polynomial arithmetic and FFT evaluation domains."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import EvaluationDomain, Polynomial, SCALAR_FIELD

F = SCALAR_FIELD

small_coeffs = st.lists(
    st.integers(min_value=0, max_value=F.p - 1), min_size=0, max_size=12
)


def poly(coeffs):
    return Polynomial(F, coeffs)


class TestPolynomial:
    def test_degree_and_zero(self):
        assert Polynomial.zero(F).degree == -1
        assert Polynomial.zero(F).is_zero()
        assert poly([0, 0, 0]).is_zero()
        assert poly([1, 2]).degree == 1
        assert Polynomial.constant(F, 7).degree == 0
        assert Polynomial.monomial(F, 3).degree == 3

    @given(a=small_coeffs, b=small_coeffs)
    @settings(max_examples=40)
    def test_add_commutes(self, a, b):
        assert poly(a) + poly(b) == poly(b) + poly(a)

    @given(a=small_coeffs, b=small_coeffs)
    @settings(max_examples=40)
    def test_mul_matches_eval(self, a, b):
        x = 987654321
        product = poly(a) * poly(b)
        expected = poly(a).evaluate(x) * poly(b).evaluate(x) % F.p
        assert product.evaluate(x) == expected

    @given(a=small_coeffs, b=small_coeffs)
    @settings(max_examples=30)
    def test_divmod_identity(self, a, b):
        pa, pb = poly(a), poly(b)
        if pb.is_zero():
            with pytest.raises(ZeroDivisionError):
                pa.divmod(pb)
            return
        q, r = pa.divmod(pb)
        assert q * pb + r == pa
        assert r.degree < pb.degree or r.is_zero()

    def test_fft_mul_path(self, rng):
        a = [rng.randrange(F.p) for _ in range(70)]
        b = [rng.randrange(F.p) for _ in range(65)]
        product = poly(a) * poly(b)
        x = rng.randrange(F.p)
        assert product.evaluate(x) == poly(a).evaluate(x) * poly(b).evaluate(x) % F.p

    def test_divide_by_linear(self, rng):
        coeffs = [rng.randrange(F.p) for _ in range(9)]
        root = rng.randrange(F.p)
        pl = poly(coeffs)
        quotient, remainder = pl.divide_by_linear(root)
        assert remainder == pl.evaluate(root)
        # quotient * (X - root) + remainder == pl
        x_minus_root = poly([(-root) % F.p, 1])
        assert quotient * x_minus_root + Polynomial.constant(F, remainder) == pl

    def test_interpolate(self):
        xs = [1, 5, 9, 13]
        ys = [2, 4, 100, 7]
        pl = Polynomial.interpolate(F, xs, ys)
        assert pl.degree <= 3
        for x, y in zip(xs, ys):
            assert pl.evaluate(x) == y

    def test_interpolate_empty(self):
        assert Polynomial.interpolate(F, [], []).is_zero()

    def test_interpolate_length_mismatch(self):
        with pytest.raises(ValueError):
            Polynomial.interpolate(F, [1], [1, 2])

    def test_vanishing(self):
        roots = [3, 7, 11]
        pl = Polynomial.vanishing(F, roots)
        assert pl.degree == 3
        for r in roots:
            assert pl.evaluate(r) == 0
        assert pl.evaluate(4) != 0

    def test_scale(self):
        pl = poly([1, 2, 3]).scale(5)
        assert pl.coeffs == [5, 10, 15]


class TestEvaluationDomain:
    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_fft_roundtrip(self, k, rng):
        domain = EvaluationDomain(F, k)
        coeffs = [rng.randrange(F.p) for _ in range(domain.size)]
        assert domain.ifft(domain.fft(coeffs)) == coeffs

    def test_fft_matches_direct_evaluation(self, rng):
        domain = EvaluationDomain(F, 4)
        coeffs = [rng.randrange(F.p) for _ in range(16)]
        pl = poly(coeffs)
        evals = domain.fft(coeffs)
        for x, expected in zip(domain.elements(), evals):
            assert pl.evaluate(x) == expected

    def test_coset_fft_roundtrip(self, rng):
        domain = EvaluationDomain(F, 5)
        shift = F.multiplicative_generator
        coeffs = [rng.randrange(F.p) for _ in range(32)]
        evals = domain.coset_fft(coeffs, shift)
        assert domain.coset_ifft(evals, shift) == coeffs
        # spot check against direct evaluation on the coset
        pl = poly(coeffs)
        point = shift * domain.omega % F.p
        assert pl.evaluate(point) == evals[1]

    def test_zero_padding(self):
        domain = EvaluationDomain(F, 3)
        evals = domain.fft([5])
        assert evals == [5] * 8  # constant polynomial

    def test_oversized_input_rejected(self):
        domain = EvaluationDomain(F, 2)
        with pytest.raises(ValueError):
            domain.fft([1] * 5)
        with pytest.raises(ValueError):
            domain.ifft([1] * 3)

    def test_vanishing_eval(self):
        domain = EvaluationDomain(F, 3)
        for x in domain.elements():
            assert domain.vanishing_eval(x) == 0
        assert domain.vanishing_eval(F.multiplicative_generator) != 0

    def test_rotated_point(self):
        domain = EvaluationDomain(F, 3)
        x = 12345
        assert domain.rotated_point(x, 1) == x * domain.omega % F.p
        assert domain.rotated_point(domain.rotated_point(x, 1), -1) == x
        assert domain.rotated_point(x, 8) == x  # full cycle

    def test_lagrange_basis(self):
        domain = EvaluationDomain(F, 3)
        elements = domain.elements()
        # Kronecker delta on the domain itself.
        for i in range(8):
            for j in range(8):
                expected = 1 if i == j else 0
                assert domain.lagrange_basis_eval(i, elements[j]) == expected
        # Off-domain: sums to 1 (partition of unity).
        x = 987
        total = sum(domain.lagrange_basis_eval(i, x) for i in range(8)) % F.p
        assert total == 1

    def test_lagrange_basis_evals_batch_matches_scalar(self):
        domain = EvaluationDomain(F, 3)
        # Off-domain point: one batch inversion, same values.
        x = 987
        batch = domain.lagrange_basis_evals(x, 8)
        assert batch == [domain.lagrange_basis_eval(i, x) for i in range(8)]
        # On-domain point: the indicator-vector path.
        elements = domain.elements()
        batch = domain.lagrange_basis_evals(elements[5], 8)
        assert batch == [1 if i == 5 else 0 for i in range(8)]
        # Partial count.
        assert domain.lagrange_basis_evals(x, 3) == batch_prefix(domain, x, 3)

    def test_domain_exceeding_two_adicity_rejected(self):
        with pytest.raises(ValueError):
            EvaluationDomain(F, 33)


def batch_prefix(domain, x, count):
    return [domain.lagrange_basis_eval(i, x) for i in range(count)]
