"""Field arithmetic: axioms, inversion, batch inversion, square roots."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import BASE_FIELD, SCALAR_FIELD, Field
from repro.algebra.field import jacobi, montgomery_batch_inv
from repro.errors import BatchInversionError

FIELDS = [BASE_FIELD, SCALAR_FIELD]


def _sqrt_oracle(f: Field, a: int) -> int | None:
    """Textbook Tonelli-Shanks: the Legendre symbol first, then
    ``t = a^q`` and ``r = a^((q+1)/2)`` as two more exponentiations."""
    p = f.p
    a %= p
    if a == 0:
        return 0
    if f.legendre(a) != 1:
        return None
    q = (p - 1) >> f.two_adicity
    m, c = f.two_adicity, f.root_of_unity
    t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2i = 0, t
        while t2i != 1:
            t2i = t2i * t2i % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return min(r, p - r)

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
    @given(a=elements)
    @settings(max_examples=50)
    def test_inverse(self, a):
        f = SCALAR_FIELD
        if a % f.p == 0:
            with pytest.raises(ZeroDivisionError):
                f.inv(a)
        else:
            assert a * f.inv(a) % f.p == 1

    def test_batch_inv_matches_single(self, field, rng):
        values = [rng.randrange(1, field.p) for _ in range(37)]
        batch = field.batch_inv(values)
        for v, inv in zip(values, batch):
            assert v * inv % field.p == 1

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

    @pytest.mark.parametrize("f", FIELDS)
    def test_sqrt_matches_the_legendre_first_oracle(self, f):
        """The same root as the textbook algorithm on residues, and None
        on the same non-residues, 0 and ``p - 1`` included."""
        import random

        rng = random.Random(7)
        cases = [0, 1, f.p - 1, f.multiplicative_generator, 4, f.root_of_unity]
        cases += [rng.randrange(f.p) for _ in range(40)]
        cases += [x * x % f.p for x in cases[-10:]]
        for a in cases:
            assert f.sqrt(a) == _sqrt_oracle(f, a), a
        assert {f.sqrt(a) is None for a in cases} == {True, False}

    @pytest.mark.parametrize("f", FIELDS)
    def test_jacobi_screen_agrees_with_legendre(self, f):
        """The reciprocity symbol ``sqrt`` screens with is Euler's
        criterion on both fields."""
        import random

        rng = random.Random(19)
        cases = [0, 1, f.p - 1, 2, f.multiplicative_generator, f.p]
        cases += [rng.randrange(f.p) for _ in range(200)]
        for a in cases:
            assert jacobi(a, f.p) == f.legendre(a), a
        assert {jacobi(a, f.p) for a in cases} == {-1, 0, 1}

    @given(a=elements)
    @settings(max_examples=30)
    def test_sqrt_consistency(self, a):
        f = SCALAR_FIELD
        root = f.sqrt(a)
        if root is None:
            assert f.legendre(a) == -1
        else:
            assert root * root % f.p == a % f.p

    def test_to_bytes_is_fixed_width_little_endian(self, field, rng):
        """The transcript absorbs scalars as these 32 bytes."""
        for v in [0, 1, field.p - 1] + [rng.randrange(field.p) for _ in range(5)]:
            data = field.to_bytes(v)
            assert len(data) == 32
            assert int.from_bytes(data, "little") == v

    def test_to_bytes_is_canonical(self, field, rng):
        """A residue has one encoding, whichever representative comes
        in."""
        v = rng.randrange(field.p)
        assert field.to_bytes(v + field.p) == field.to_bytes(v)
        assert field.to_bytes(-v) == field.to_bytes(field.p - v)
