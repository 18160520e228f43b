"""Prime-field arithmetic for the Pasta curves.

Two fields are provided as module-level singletons:

- :data:`BASE_FIELD` -- the Pallas base field ``Fp`` (the coordinate
  field of Pallas points),
- :data:`SCALAR_FIELD` -- the Pallas scalar field ``Fq`` (the field the
  PLONKish circuits are arithmetized over; equals the Vesta base field).

Both primes have two-adicity 32 (``2^32 | p - 1``), which is what makes
radix-2 FFTs over them possible -- the property Halo2 and this
reproduction rely on for the vanishing argument.

Design note: raw field elements are plain Python ``int`` values in
``[0, p)``.  A :class:`Field` object is the arithmetic context (it knows
the modulus and caches derived constants such as roots of unity), and
:class:`Felt` is a thin operator-overloaded wrapper used at public API
boundaries and in tests.  Hot loops in the prover work directly on ints.
"""

from __future__ import annotations

import hashlib
import random as _random
import secrets
import threading
from contextlib import contextmanager
from typing import Iterable, Iterator, Sequence

from repro import telemetry
from repro.errors import BatchInversionError

#: Thread-local override stream for :meth:`Field.rand` (see
#: :func:`deterministic_rng`).  Thread-local so concurrent proving jobs
#: with independent seeds never interleave their draws.
_RNG_LOCAL = threading.local()


@contextmanager
def deterministic_rng(seed: int) -> Iterator[None]:
    """Route every ``Field.rand()`` call on this thread through a
    PRNG seeded with ``seed`` for the duration of the scope.

    This exists for *reproducibility*, not security: two proves of the
    same statement under the same seed draw identical blinding factors
    and therefore serialize to identical wire bytes.  The proving
    service uses it to let clients cross-check an async proof against a
    synchronous one (and tests to pin proof bytes).  Production proving
    must run outside this scope, where :meth:`Field.rand` keeps using
    the ``secrets`` CSPRNG.

    Scopes nest; each ``with`` installs a fresh stream and restores the
    previous one on exit.  All blinding draws happen on the proving
    thread, so the stream fixes every blind of a prove.
    """
    previous = getattr(_RNG_LOCAL, "rng", None)
    _RNG_LOCAL.rng = _random.Random(seed)
    try:
        yield
    finally:
        _RNG_LOCAL.rng = previous


def forget_deterministic_rng() -> None:
    """Drop this thread's :func:`deterministic_rng` stream, so
    :meth:`Field.rand` draws from ``secrets`` again.

    A process forked inside a seeded scope inherits the stream; the
    proving service's runner processes call this first, so a job
    without ``rng_seed`` never draws blinds that anyone holding the
    seed could predict."""
    _RNG_LOCAL.rng = None


# The Pasta primes (as used by zcash/halo2).
PALLAS_BASE_MODULUS = (
    0x40000000000000000000000000000000224698FC094CF91B992D30ED00000001
)
PALLAS_SCALAR_MODULUS = (
    0x40000000000000000000000000000000224698FC0994A8DD8C46EB2100000001
)


def montgomery_batch_inv(values: Sequence[int], p: int) -> list[int]:
    """Montgomery batch inversion: O(n) multiplications, one inversion.

    Does NOT feed the ``field.inversions`` telemetry counter -- use
    :meth:`Field.batch_inv` for workload inversions.  This raw form is
    for bookkeeping conversions (point normalization, batch-affine
    rounds), which are not workload metrics.

    A zero input raises :class:`~repro.errors.BatchInversionError`
    naming the offending index (detected up front, before any work).
    """
    n = len(values)
    vals = [v % p for v in values]
    if 0 in vals:
        raise BatchInversionError(vals.index(0))
    prefix = [0] * n
    acc = 1
    for i, v in enumerate(vals):
        prefix[i] = acc
        acc = acc * v % p
    inv_acc = pow(acc, -1, p)  # extended Euclid: ~6x cheaper than Fermat
    out = [0] * n
    for i in range(n - 1, -1, -1):
        out[i] = prefix[i] * inv_acc % p
        inv_acc = inv_acc * vals[i] % p
    return out


class Field:
    """An arithmetic context for a prime field GF(p).

    All methods take and return plain integers reduced modulo ``p``.
    The context precomputes the field's two-adicity and a maximal-order
    2-power root of unity, which the FFT domains build on.
    """

    __slots__ = (
        "p",
        "name",
        "two_adicity",
        "root_of_unity",
        "multiplicative_generator",
        "_byte_length",
        "_tonelli_q",
    )

    def __init__(self, modulus: int, name: str = "Fp"):
        if modulus < 3 or modulus % 2 == 0:
            raise ValueError(f"modulus must be an odd prime, got {modulus}")
        self.p = modulus
        self.name = name
        self._byte_length = (modulus.bit_length() + 7) // 8

        # Two-adicity: the largest s with 2^s | p - 1.  The odd part t
        # is kept as well: it is the q of the p - 1 = q * 2^s Tonelli-
        # Shanks decomposition, which sqrt() would otherwise re-derive
        # on every call (hash-to-curve does one sqrt per attempt).
        t = modulus - 1
        s = 0
        while t % 2 == 0:
            t //= 2
            s += 1
        self.two_adicity = s
        self._tonelli_q = t

        # A quadratic non-residue g gives a root of unity of exact
        # order 2^s via g^t.  Small candidates are tested with the
        # Euler criterion.
        generator = 0
        for candidate in range(2, 1000):
            if pow(candidate, (modulus - 1) // 2, modulus) == modulus - 1:
                generator = candidate
                break
        if not generator:
            raise ValueError("could not find a quadratic non-residue")
        self.multiplicative_generator = generator
        self.root_of_unity = pow(generator, t, modulus)

    # -- basic ops ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def square(self, a: int) -> int:
        return (a * a) % self.p

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        return pow(a, e, self.p)

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises ZeroDivisionError on 0."""
        if a % self.p == 0:
            raise ZeroDivisionError(f"0 has no inverse in {self.name}")
        telemetry.incr("field.inversions")
        return pow(a, -1, self.p)

    def div(self, a: int, b: int) -> int:
        return (a * self.inv(b)) % self.p

    def reduce(self, a: int) -> int:
        return a % self.p

    # -- batch operations ----------------------------------------------

    def batch_inv(self, values: Sequence[int]) -> list[int]:
        """Invert many nonzero elements with a single field inversion.

        Montgomery's trick: O(n) multiplications plus one inversion.
        Zero inputs raise :class:`~repro.errors.BatchInversionError`
        naming the offending index (callers in the prover guarantee
        nonzero denominators by construction; when that contract breaks
        the error says exactly where).
        """
        if len(values) == 0:
            return []
        telemetry.incr("field.inversions", len(values))
        return montgomery_batch_inv(values, self.p)

    def sum(self, values: Iterable[int]) -> int:
        total = 0
        for v in values:
            total += v
        return total % self.p

    def product(self, values: Iterable[int]) -> int:
        acc = 1
        p = self.p
        for v in values:
            acc = acc * v % p
        return acc

    # -- square roots (needed for hash-to-curve) ------------------------

    def legendre(self, a: int) -> int:
        """Legendre symbol: 1 for QR, -1 for non-residue, 0 for zero."""
        a %= self.p
        if a == 0:
            return 0
        r = pow(a, (self.p - 1) // 2, self.p)
        return 1 if r == 1 else -1

    def sqrt(self, a: int) -> int | None:
        """Tonelli-Shanks square root, or None when ``a`` is a non-residue."""
        p = self.p
        a %= p
        if a == 0:
            return 0
        if self.legendre(a) != 1:
            return None
        # p - 1 = q * 2^s with q odd, decomposed once in __init__; the
        # non-residue power z^q is exactly root_of_unity.
        q, s = self._tonelli_q, self.two_adicity
        m, c, t, r = s, self.root_of_unity, pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            # Find least i with t^(2^i) == 1.
            i, t2i = 0, t
            while t2i != 1:
                t2i = t2i * t2i % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, r = t * c % p, r * b % p
        return min(r, p - r)

    # -- element construction -------------------------------------------

    def rand(self) -> int:
        """A uniformly random field element (cryptographic randomness,
        unless the calling thread is inside :func:`deterministic_rng`)."""
        rng = getattr(_RNG_LOCAL, "rng", None)
        if rng is not None:
            return rng.randrange(self.p)
        return secrets.randbelow(self.p)

    def from_signed(self, v: int) -> int:
        """Embed a signed integer, mapping negatives to ``p - |v|``."""
        return v % self.p

    def to_signed(self, a: int) -> int:
        """Lift back to a signed integer, choosing the representative
        closest to zero (used to decode small query outputs)."""
        a %= self.p
        return a - self.p if a > self.p // 2 else a

    def from_bytes(self, data: bytes) -> int:
        return int.from_bytes(data, "little") % self.p

    def to_bytes(self, a: int) -> bytes:
        return (a % self.p).to_bytes(self._byte_length, "little")

    def hash_to_field(self, *chunks: bytes) -> int:
        """Hash arbitrary bytes to a field element (64-byte expand to
        keep the output statistically uniform)."""
        h = hashlib.blake2b(digest_size=64)
        for chunk in chunks:
            h.update(chunk)
        return int.from_bytes(h.digest(), "little") % self.p

    # -- roots of unity ---------------------------------------------------

    def root_of_unity_of_order(self, order: int) -> int:
        """A primitive ``order``-th root of unity; order must be a power
        of two not exceeding ``2^two_adicity``."""
        if order <= 0 or order & (order - 1):
            raise ValueError(f"order must be a power of two, got {order}")
        log_order = order.bit_length() - 1
        if log_order > self.two_adicity:
            raise ValueError(
                f"no root of unity of order 2^{log_order} in {self.name} "
                f"(two-adicity {self.two_adicity})"
            )
        omega = self.root_of_unity
        for _ in range(self.two_adicity - log_order):
            omega = omega * omega % self.p
        return omega

    # -- misc ------------------------------------------------------------

    def felt(self, v: int) -> "Felt":
        return Felt(self, v % self.p)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Field({self.name}, 2^{self.p.bit_length() - 1}-ish modulus)"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("Field", self.p))


class Felt:
    """Operator-overloaded field element bound to a :class:`Field`.

    Arithmetic between a ``Felt`` and a plain ``int`` is supported and
    returns a ``Felt``; mixing elements of different fields raises.
    """

    __slots__ = ("field", "n")

    def __init__(self, field: Field, n: int):
        self.field = field
        self.n = n % field.p

    def _coerce(self, other: "Felt | int") -> int:
        if isinstance(other, Felt):
            if other.field.p != self.field.p:
                raise ValueError("field mismatch")
            return other.n
        if isinstance(other, int):
            return other % self.field.p
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: "Felt | int") -> "Felt":
        return Felt(self.field, self.n + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other: "Felt | int") -> "Felt":
        return Felt(self.field, self.n - self._coerce(other))

    def __rsub__(self, other: "Felt | int") -> "Felt":
        return Felt(self.field, self._coerce(other) - self.n)

    def __mul__(self, other: "Felt | int") -> "Felt":
        return Felt(self.field, self.n * self._coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other: "Felt | int") -> "Felt":
        return Felt(self.field, self.n * self.field.inv(self._coerce(other)))

    def __rtruediv__(self, other: "Felt | int") -> "Felt":
        return Felt(self.field, self._coerce(other) * self.field.inv(self.n))

    def __pow__(self, e: int) -> "Felt":
        return Felt(self.field, self.field.pow(self.n, e))

    def __neg__(self) -> "Felt":
        return Felt(self.field, -self.n)

    def inv(self) -> "Felt":
        return Felt(self.field, self.field.inv(self.n))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Felt):
            return other.field.p == self.field.p and other.n == self.n
        if isinstance(other, int):
            return self.n == other % self.field.p
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field.p, self.n))

    def __int__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"Felt({self.n})"


#: Pallas base field -- coordinates of Pallas curve points live here.
BASE_FIELD = Field(PALLAS_BASE_MODULUS, name="Fp")

#: Pallas scalar field -- the circuit field used throughout PoneglyphDB.
SCALAR_FIELD = Field(PALLAS_SCALAR_MODULUS, name="Fq")
