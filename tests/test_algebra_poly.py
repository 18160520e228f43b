"""Coefficient-list helpers and FFT evaluation domains."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import EvaluationDomain, SCALAR_FIELD
from repro.algebra.poly import divide_by_linear, evaluate_coeffs

F = SCALAR_FIELD

small_coeffs = st.lists(
    st.integers(min_value=0, max_value=F.p - 1), min_size=0, max_size=12
)


def power_sum(coeffs, x):
    """``sum c_i x^i`` term by term: the oracle for Horner."""
    return sum(c * pow(x, i, F.p) for i, c in enumerate(coeffs)) % F.p


def times_linear(quotient, root):
    """``quotient * (X - root)`` as a coefficient list."""
    out = [0] * (len(quotient) + 1)
    for i, c in enumerate(quotient):
        out[i + 1] = (out[i + 1] + c) % F.p
        out[i] = (out[i] - c * root) % F.p
    return out


class TestCoefficientHelpers:
    """``evaluate_coeffs`` and ``divide_by_linear``: the multiopen
    quotient's two kernels."""

    @given(coeffs=small_coeffs, x=st.integers(min_value=0, max_value=F.p - 1))
    @settings(max_examples=40)
    def test_evaluate_coeffs_matches_power_sum(self, coeffs, x):
        assert evaluate_coeffs(coeffs, x, F.p) == power_sum(coeffs, x)

    @given(
        coeffs=st.lists(
            st.integers(min_value=0, max_value=F.p - 1), min_size=2, max_size=12
        ),
        root=st.integers(min_value=0, max_value=F.p - 1),
    )
    @settings(max_examples=40)
    def test_divide_by_linear_identity(self, coeffs, root):
        """``quotient * (X - r) + c(r) == c`` for every ``c`` and ``r``."""
        quotient = divide_by_linear(coeffs, root, F.p)
        assert len(quotient) == len(coeffs) - 1
        rebuilt = times_linear(quotient, root)
        rebuilt[0] = (rebuilt[0] + evaluate_coeffs(coeffs, root, F.p)) % F.p
        assert rebuilt == [c % F.p for c in coeffs]

    @pytest.mark.parametrize("coeffs", [[], [7]], ids=["empty", "constant"])
    def test_divide_by_linear_of_a_constant_is_empty(self, coeffs):
        """A constant divided by ``X - r`` leaves no quotient: all of
        it is the remainder ``c(r)``."""
        assert divide_by_linear(coeffs, 5, F.p) == []

    def test_divide_by_linear_is_exact_at_roots(self, rng):
        """Dividing out each root of ``(X - a)(X - b) * g`` in turn --
        what the multiopen does per point set -- leaves ``g``."""
        g = [rng.randrange(F.p) for _ in range(6)]
        a, b = rng.randrange(F.p), rng.randrange(F.p)
        c = times_linear(times_linear(g, a), b)
        assert divide_by_linear(divide_by_linear(c, a, F.p), b, F.p) == g


class TestEvaluationDomain:
    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_fft_roundtrip(self, k, rng):
        domain = EvaluationDomain(F, k)
        coeffs = [rng.randrange(F.p) for _ in range(domain.size)]
        assert domain.ifft(domain.fft(coeffs)) == coeffs

    def test_fft_matches_direct_evaluation(self, rng):
        domain = EvaluationDomain(F, 4)
        coeffs = [rng.randrange(F.p) for _ in range(16)]
        evals = domain.fft(coeffs)
        for x, expected in zip(domain.elements(), evals):
            assert evaluate_coeffs(coeffs, x, F.p) == expected

    def test_coset_fft_roundtrip(self, rng):
        domain = EvaluationDomain(F, 5)
        shift = F.multiplicative_generator
        coeffs = [rng.randrange(F.p) for _ in range(32)]
        evals = domain.coset_fft(coeffs, shift)
        assert domain.coset_ifft(evals, shift) == coeffs
        # spot check against direct evaluation on the coset
        point = shift * domain.omega % F.p
        assert evaluate_coeffs(coeffs, point, F.p) == evals[1]

    def test_pointwise_product_is_the_polynomial_product(self, rng):
        """Evaluations multiply pointwise to the product polynomial's
        when the domain holds its degree (the convolution theorem)."""
        domain = EvaluationDomain(F, 7)
        a = [rng.randrange(F.p) for _ in range(70)]
        b = [rng.randrange(F.p) for _ in range(58)]
        product = domain.ifft(
            [u * v % F.p for u, v in zip(domain.fft(a), domain.fft(b))]
        )
        x = rng.randrange(F.p)
        expected = evaluate_coeffs(a, x, F.p) * evaluate_coeffs(b, x, F.p) % F.p
        assert evaluate_coeffs(product, x, F.p) == expected

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
