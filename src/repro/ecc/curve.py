"""Short-Weierstrass curve arithmetic for the Pasta curves.

Points are held in Jacobian projective coordinates ``(X, Y, Z)`` where
the affine point is ``(X/Z^2, Y/Z^3)`` and the identity has ``Z = 0``.
This avoids a field inversion per group operation; affine coordinates
are recovered only at serialization boundaries (transcripts, proofs).

Nothing here is constant-time -- this reproduction targets protocol
correctness and performance *shape*, not side-channel hardening (the
paper's artifact inherits hardening from the Rust `halo2` crate).
"""

from __future__ import annotations

import hashlib

from repro.algebra.field import (
    BASE_FIELD,
    SCALAR_FIELD,
    Field,
    PALLAS_BASE_MODULUS,
    PALLAS_SCALAR_MODULUS,
    montgomery_batch_inv,
)


class Curve:
    """Parameters of a short-Weierstrass curve ``y^2 = x^3 + b`` with
    prime order, plus its generator."""

    __slots__ = ("name", "field", "scalar_field", "b", "generator")

    def __init__(self, name: str, field: Field, scalar_field: Field, b: int,
                 gx: int, gy: int):
        self.name = name
        self.field = field
        self.scalar_field = scalar_field
        self.b = b % field.p
        self.generator = Point(self, gx, gy)
        if not self.generator.is_on_curve():
            raise ValueError(f"generator not on curve {name}")

    def identity(self) -> "Point":
        return Point._identity(self)

    def point(self, x: int, y: int) -> "Point":
        pt = Point(self, x, y)
        if not pt.is_on_curve():
            raise ValueError(f"({x}, {y}) is not on {self.name}")
        return pt

    def hash_to_curve(self, domain: bytes, message: bytes) -> "Point":
        """Derive a curve point with unknown discrete log from public
        bytes (try-and-increment).

        This is how the commitment bases are derived: no trusted setup,
        only publicly verifiable randomness (paper section 3.2).
        """
        p = self.field.p
        counter = 0
        while True:
            digest = hashlib.blake2b(
                domain + message + counter.to_bytes(4, "little"),
                digest_size=64,
            ).digest()
            x = int.from_bytes(digest, "little") % p
            rhs = (x * x % p * x + self.b) % p
            y = self.field.sqrt(rhs)
            if y is not None:
                # Deterministic sign choice keyed to the digest parity.
                if (digest[0] & 1) != (y & 1):
                    y = p - y
                return Point(self, x, y)
            counter += 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Curve({self.name})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Curve) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("Curve", self.name))


class Point:
    """A point on a :class:`Curve` in Jacobian coordinates."""

    __slots__ = ("curve", "x", "y", "z")

    def __init__(self, curve: Curve, x: int, y: int, z: int = 1):
        self.curve = curve
        self.x = x % curve.field.p
        self.y = y % curve.field.p
        self.z = z % curve.field.p

    @classmethod
    def _identity(cls, curve: Curve) -> "Point":
        return cls(curve, 1, 1, 0)

    def is_identity(self) -> bool:
        return self.z == 0

    def is_on_curve(self) -> bool:
        if self.z == 0:
            return True
        p = self.curve.field.p
        x, y, z = self.x, self.y, self.z
        # y^2 = x^3 + b z^6 in Jacobian form.
        z2 = z * z % p
        z6 = z2 * z2 % p * z2 % p
        return (y * y - x * x % p * x - self.curve.b * z6) % p == 0

    # -- group law ---------------------------------------------------------

    def double(self) -> "Point":
        if self.z == 0 or self.y == 0:
            return Point._identity(self.curve)
        p = self.curve.field.p
        x, y, z = self.x, self.y, self.z
        a = x * x % p
        b = y * y % p
        c = b * b % p
        t = (x + b) % p
        d = (2 * (t * t % p - a - c)) % p
        e = 3 * a % p
        f = e * e % p
        x3 = (f - 2 * d) % p
        y3 = (e * (d - x3) - 8 * c) % p
        z3 = 2 * y * z % p
        return Point(self.curve, x3, y3, z3)

    def __add__(self, other: "Point") -> "Point":
        if self.curve is not other.curve and self.curve != other.curve:
            raise ValueError("points on different curves")
        if self.z == 0:
            return other
        if other.z == 0:
            return self
        p = self.curve.field.p
        x1, y1, z1 = self.x, self.y, self.z
        x2, y2, z2 = other.x, other.y, other.z
        z1z1 = z1 * z1 % p
        z2z2 = z2 * z2 % p
        u1 = x1 * z2z2 % p
        u2 = x2 * z1z1 % p
        s1 = y1 * z2 % p * z2z2 % p
        s2 = y2 * z1 % p * z1z1 % p
        if u1 == u2:
            if s1 != s2:
                return Point._identity(self.curve)
            return self.double()
        h = (u2 - u1) % p
        i = (2 * h) % p
        i = i * i % p
        j = h * i % p
        r = 2 * (s2 - s1) % p
        v = u1 * i % p
        x3 = (r * r - j - 2 * v) % p
        y3 = (r * (v - x3) - 2 * s1 * j) % p
        z3 = ((z1 + z2) % p) ** 2 % p
        z3 = (z3 - z1z1 - z2z2) % p * h % p
        return Point(self.curve, x3, y3, z3)

    def __neg__(self) -> "Point":
        if self.z == 0:
            return self
        return Point(self.curve, self.x, (-self.y) % self.curve.field.p, self.z)

    def __sub__(self, other: "Point") -> "Point":
        return self + (-other)

    def __mul__(self, scalar: int) -> "Point":
        """Scalar multiplication (left-to-right, 4-bit windows).

        Full-width scalars on a curve with a known cube-root
        endomorphism split into two interleaved ~128-bit halves
        (:func:`repro.ecc.glv.endo_mul`; same group element either way).
        """
        n = scalar % self.curve.scalar_field.p
        if n == 0 or self.z == 0:
            return Point._identity(self.curve)
        if n.bit_length() > 128:
            from repro.ecc import glv

            endo = glv.curve_endo(self.curve)
            if endo is not None:
                return glv.endo_mul(self, n, endo)
        # Window precomputation sized to the scalar: table[w] = w * P.
        # A scalar that fits one 4-bit window only ever indexes up to
        # its own value; full-width scalars use all 15 entries.
        bits = n.bit_length()
        size = n if bits <= 4 else 15
        table = [self]
        for _ in range(size - 1):
            table.append(table[-1] + self)
        acc = Point._identity(self.curve)
        top = ((bits + 3) // 4) * 4 - 4
        for shift in range(top, -1, -4):
            if not acc.is_identity():
                acc = acc.double().double().double().double()
            window = (n >> shift) & 0xF
            if window:
                acc = acc + table[window - 1]
        return acc

    __rmul__ = __mul__

    # -- conversions -------------------------------------------------------

    def to_affine(self) -> tuple[int, int]:
        """Affine coordinates; the identity maps to ``(0, 0)`` (which is
        never a valid curve point for b != 0)."""
        if self.z == 0:
            return (0, 0)
        if self.z == 1:
            return (self.x, self.y)
        p = self.curve.field.p
        # Raw inversion, not Field.inv: normalization is representation
        # bookkeeping, not workload, so it must not feed the
        # field.inversions counter.  z is nonzero mod p here.
        z_inv = pow(self.z, -1, p)
        z_inv2 = z_inv * z_inv % p
        return (self.x * z_inv2 % p, self.y * z_inv2 % p * z_inv % p)

    def to_bytes(self) -> bytes:
        """Uncompressed little-endian encoding for transcript absorption."""
        x, y = self.to_affine()
        size = self.curve.field._byte_length
        return x.to_bytes(size, "little") + y.to_bytes(size, "little")

    @classmethod
    def from_bytes(cls, curve: Curve, data: bytes) -> "Point":
        """Strict inverse of :meth:`to_bytes`.

        Rejects bad lengths, non-canonical coordinates (``>= p``, which
        would silently re-encode to different bytes), and off-curve
        points; the ``(0, 0)`` encoding is the identity (never a valid
        affine point when ``b != 0``).
        """
        size = curve.field._byte_length
        if len(data) != 2 * size:
            raise ValueError("bad point encoding length")
        x = int.from_bytes(data[:size], "little")
        y = int.from_bytes(data[size:], "little")
        if x >= curve.field.p or y >= curve.field.p:
            raise ValueError("non-canonical point coordinates")
        if x == 0 and y == 0:
            return cls._identity(curve)
        return curve.point(x, y)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Point):
            return NotImplemented
        if self.curve != other.curve:
            return False
        if self.z == 0 or other.z == 0:
            return self.z == other.z
        p = self.curve.field.p
        # Cross-multiplied comparison avoids inversions.
        z1z1 = self.z * self.z % p
        z2z2 = other.z * other.z % p
        if (self.x * z2z2 - other.x * z1z1) % p:
            return False
        return (self.y * z2z2 % p * other.z - other.y * z1z1 % p * self.z) % p == 0

    def __hash__(self) -> int:
        return hash((self.curve.name,) + self.to_affine())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.z == 0:
            return f"Point({self.curve.name}, identity)"
        x, y = self.to_affine()
        return f"Point({self.curve.name}, x={hex(x)[:12]}..., y={hex(y)[:12]}...)"


def batch_to_affine(points: list[Point]) -> list[tuple[int, int]]:
    """Normalize many Jacobian points with one field inversion."""
    if not points:
        return []
    field = points[0].curve.field
    p = field.p
    zs = [pt.z if pt.z else 1 for pt in points]
    # Uncounted (see Point.to_affine): serialization bookkeeping, not a
    # workload inversion.
    invs = montgomery_batch_inv(zs, p)
    out = []
    for pt, z_inv in zip(points, invs):
        if pt.z == 0:
            out.append((0, 0))
        else:
            z_inv2 = z_inv * z_inv % p
            out.append((pt.x * z_inv2 % p, pt.y * z_inv2 % p * z_inv % p))
    return out


#: Pallas: order(PALLAS) == Fq modulus.  Generator (-1, 2).
PALLAS = Curve(
    "pallas",
    BASE_FIELD,
    SCALAR_FIELD,
    b=5,
    gx=PALLAS_BASE_MODULUS - 1,
    gy=2,
)

#: Vesta: the cycle partner (order == Fp modulus).  Generator (-1, 2).
VESTA = Curve(
    "vesta",
    SCALAR_FIELD,
    BASE_FIELD,
    b=5,
    gx=PALLAS_SCALAR_MODULUS - 1,
    gy=2,
)

#: Registry that reattaches serialized points to the curve singleton
#: by name (parameter files and pickled fixed-base tables).
CURVES: dict[str, Curve] = {PALLAS.name: PALLAS, VESTA.name: VESTA}


def curve_by_name(name: str) -> Curve:
    try:
        return CURVES[name]
    except KeyError:
        raise ValueError(f"unknown curve {name!r}") from None


def points_to_affine_tuples(points: list[Point]) -> list[tuple[int, int]]:
    """Plain-data affine form of many points, with one shared inversion
    (the identity maps to ``(0, 0)``, mirroring :meth:`Point.to_affine`)."""
    return batch_to_affine(points)


def points_from_affine_tuples(
    curve: Curve, coords: list[tuple[int, int]]
) -> list[Point]:
    """Inverse of :func:`points_to_affine_tuples` (no on-curve check:
    inputs come from our own serialization)."""
    identity = Point._identity(curve)
    return [
        identity if x == 0 and y == 0 else Point(curve, x, y)
        for x, y in coords
    ]
