"""Field arithmetic: axioms, inversion, batch inversion, square roots."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import BASE_FIELD, SCALAR_FIELD, Field, Felt
from repro.algebra.field import montgomery_batch_inv
from repro.errors import BatchInversionError

FIELDS = [BASE_FIELD, SCALAR_FIELD]

elements = st.integers(min_value=0, max_value=SCALAR_FIELD.p - 1)


class TestFieldBasics:
    def test_moduli_are_distinct_255_bit_primes(self):
        assert BASE_FIELD.p != SCALAR_FIELD.p
        assert BASE_FIELD.p.bit_length() == 255
        assert SCALAR_FIELD.p.bit_length() == 255

    @pytest.mark.parametrize("f", FIELDS)
    def test_two_adicity_is_32(self, f):
        assert f.two_adicity == 32
        assert (f.p - 1) % (1 << 32) == 0
        assert (f.p - 1) % (1 << 33) != 0

    @pytest.mark.parametrize("f", FIELDS)
    def test_root_of_unity_has_exact_order(self, f):
        w = f.root_of_unity
        assert pow(w, 1 << 32, f.p) == 1
        assert pow(w, 1 << 31, f.p) != 1

    @pytest.mark.parametrize("f", FIELDS)
    def test_generator_is_nonresidue(self, f):
        assert f.legendre(f.multiplicative_generator) == -1

    def test_rejects_even_modulus(self):
        with pytest.raises(ValueError):
            Field(10)

    def test_root_of_unity_of_order(self, field):
        for k in (1, 2, 8, 16):
            w = field.root_of_unity_of_order(1 << k)
            assert pow(w, 1 << k, field.p) == 1
            assert pow(w, 1 << (k - 1), field.p) != 1

    def test_root_of_unity_rejects_non_power_of_two(self, field):
        with pytest.raises(ValueError):
            field.root_of_unity_of_order(12)

    def test_root_of_unity_rejects_excess_order(self, field):
        with pytest.raises(ValueError):
            field.root_of_unity_of_order(1 << 40)


class TestFieldOps:
    @given(a=elements, b=elements)
    @settings(max_examples=50)
    def test_add_sub_roundtrip(self, a, b):
        f = SCALAR_FIELD
        assert f.sub(f.add(a, b), b) == a % f.p

    @given(a=elements)
    @settings(max_examples=50)
    def test_inverse(self, a):
        f = SCALAR_FIELD
        if a % f.p == 0:
            with pytest.raises(ZeroDivisionError):
                f.inv(a)
        else:
            assert f.mul(a, f.inv(a)) == 1

    @given(a=elements, b=elements, c=elements)
    @settings(max_examples=50)
    def test_distributivity(self, a, b, c):
        f = SCALAR_FIELD
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))

    def test_batch_inv_matches_single(self, field, rng):
        values = [rng.randrange(1, field.p) for _ in range(37)]
        batch = field.batch_inv(values)
        for v, inv in zip(values, batch):
            assert field.mul(v, inv) == 1

    def test_batch_inv_empty(self, field):
        assert field.batch_inv([]) == []

    def test_batch_inv_zero_raises(self, field):
        with pytest.raises(ZeroDivisionError):
            field.batch_inv([1, 2, 0, 4])

    def test_batch_inv_zero_error_names_index(self, field):
        """The typed error reports exactly which input was zero."""
        with pytest.raises(BatchInversionError) as excinfo:
            field.batch_inv([1, 2, 0, 4])
        assert excinfo.value.index == 2
        assert "index 2" in str(excinfo.value)

    def test_batch_inv_zero_detected_up_front(self, field):
        """A congruent-to-zero value (p itself) is caught before any
        work, at its own index -- not discovered mid-ladder."""
        with pytest.raises(BatchInversionError) as excinfo:
            montgomery_batch_inv([3, field.p, 5], field.p)
        assert excinfo.value.index == 1

    def test_batch_inv_zero_error_is_value_and_zero_division(self, field):
        """Historical handlers catch either builtin type."""
        with pytest.raises(ValueError):
            field.batch_inv([0])
        with pytest.raises(ZeroDivisionError):
            montgomery_batch_inv([7, 0], field.p)

    def test_euclid_inverse_equals_fermat(self, rng):
        """Inverses come from ``pow(x, -1, p)``; Fermat's ``x^(p-2)`` is
        the oracle, over both Pasta fields and in ``Point.to_affine``."""
        from repro.ecc import PALLAS
        from repro.ecc.curve import Point

        for f in (SCALAR_FIELD, BASE_FIELD):
            values = [rng.randrange(1, f.p) for _ in range(20)] + [1, f.p - 1]
            fermat = [pow(v, f.p - 2, f.p) for v in values]
            assert [f.inv(v) for v in values] == fermat
            assert [f.inv(v + f.p) for v in values] == fermat
            assert montgomery_batch_inv(values, f.p) == fermat
        p = PALLAS.field.p
        x, y = PALLAS.generator.to_affine()
        z = rng.randrange(2, p)
        scaled = Point(PALLAS, x * z * z % p, y * pow(z, 3, p) % p, z)
        assert scaled.to_affine() == (x, y)

    def test_inv_of_zero_is_refused_before_pow(self, field):
        """``pow(0, -1, p)`` would raise a bare ValueError."""
        for zero in (0, field.p):
            with pytest.raises(ZeroDivisionError, match="no inverse"):
                field.inv(zero)

    @given(a=elements)
    @settings(max_examples=30)
    def test_sqrt_consistency(self, a):
        f = SCALAR_FIELD
        root = f.sqrt(a)
        if root is None:
            assert f.legendre(a) == -1
        else:
            assert f.mul(root, root) == a % f.p

    def test_signed_roundtrip(self, field):
        for v in (-5, -1, 0, 1, 123456):
            assert field.to_signed(field.from_signed(v)) == v

    def test_pow_negative_exponent(self, field):
        assert field.mul(field.pow(7, -3), field.pow(7, 3)) == 1

    def test_hash_to_field_deterministic(self, field):
        assert field.hash_to_field(b"a", b"b") == field.hash_to_field(b"a", b"b")
        assert field.hash_to_field(b"a") != field.hash_to_field(b"b")

    def test_bytes_roundtrip(self, field, rng):
        for _ in range(5):
            v = rng.randrange(field.p)
            assert field.from_bytes(field.to_bytes(v)) == v


class TestFelt:
    def test_operators(self, field):
        a = field.felt(10)
        b = field.felt(3)
        assert (a + b).n == 13
        assert (a - b).n == 7
        assert (a * b).n == 30
        assert (a / b * b) == a
        assert (a ** 2).n == 100
        assert (-a + a).n == 0
        assert (5 + a).n == 15
        assert (5 - a) == field.felt(-5)
        assert a.inv() * a == field.felt(1)
        assert int(b) == 3

    def test_int_comparison(self, field):
        assert field.felt(-1) == field.p - 1

    def test_cross_field_mixing_raises(self):
        a = BASE_FIELD.felt(1)
        b = SCALAR_FIELD.felt(1)
        with pytest.raises(ValueError):
            _ = a + b

    def test_felt_hashable(self, field):
        assert len({field.felt(1), field.felt(1), field.felt(2)}) == 2
