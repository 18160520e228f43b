"""Strict byte-level decoding for the proof wire format.

Proofs are non-interactive artifacts shipped over a wire: the verifier
must treat every byte as adversarial.  :class:`ByteReader` is the one
place the decoding rules live:

- every count is length-checked against the bytes actually remaining,
  so a hostile count can never trigger a huge allocation;
- scalars are rejected unless canonical (strictly below the field
  modulus) -- two encodings of the same residue would otherwise slip
  past commitment binding;
- points are rejected unless both affine coordinates are canonical and
  the point lies on the curve (the identity is the reserved ``(0, 0)``
  encoding, which is never on a ``b != 0`` short-Weierstrass curve);
- trailing bytes after the last field are an error (:meth:`finish`).

Every decoder in :mod:`repro.proving.proof`, :mod:`repro.commit.ipa`
and :mod:`repro.db.commitment` is built on this reader, so the
tamper harness (``tests/soundness.py``) exercises a single, uniform
rejection surface.
"""

from __future__ import annotations

from repro.ecc.curve import Curve, Point
from repro.errors import WireFormatError

#: Canonical scalar encoding width (Pasta scalars are < 2^255).
SCALAR_BYTES = 32

__all__ = ["ByteReader", "SCALAR_BYTES", "WireFormatError"]


class ByteReader:
    """A bounds-checked cursor over untrusted bytes."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def take(self, n: int, what: str) -> bytes:
        if n < 0 or self.remaining < n:
            raise WireFormatError(
                f"truncated {what}: need {n} bytes, have {self.remaining}"
            )
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def expect(self, magic: bytes, what: str) -> None:
        if self.take(len(magic), what) != magic:
            raise WireFormatError(f"bad {what}")

    def u32(self, what: str) -> int:
        return int.from_bytes(self.take(4, what), "little")

    def i32(self, what: str) -> int:
        value = self.u32(what)
        return value - (1 << 32) if value >= (1 << 31) else value

    def count(self, what: str, *, element_size: int, max_count: int) -> int:
        """Read a u32 element count; reject counts that exceed
        ``max_count`` or promise more elements than the remaining bytes
        could possibly hold."""
        value = self.u32(f"{what} count")
        if value > max_count:
            raise WireFormatError(
                f"{what} count {value} exceeds bound {max_count}"
            )
        if element_size > 0 and value * element_size > self.remaining:
            raise WireFormatError(
                f"{what} count {value} exceeds remaining bytes"
            )
        return value

    def blob(self, what: str, *, max_len: int) -> bytes:
        """Read a u32 length-prefixed byte string; reject lengths above
        ``max_len`` (hostile-allocation bound) before taking the bytes
        (which itself rejects lengths past the remaining data)."""
        n = self.u32(f"{what} length")
        if n > max_len:
            raise WireFormatError(
                f"{what} length {n} exceeds bound {max_len}"
            )
        return self.take(n, what)

    def string(self, what: str, *, max_len: int) -> str:
        """Read a u32 length-prefixed UTF-8 string (strictly decoded:
        invalid UTF-8 is a wire error, and valid UTF-8 re-encodes to the
        same bytes, so every string has one canonical encoding)."""
        raw = self.blob(what, max_len=max_len)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireFormatError(f"invalid UTF-8 in {what}: {exc}") from None

    def scalar(self, modulus: int, what: str) -> int:
        value = int.from_bytes(self.take(SCALAR_BYTES, what), "little")
        if value >= modulus:
            raise WireFormatError(f"non-canonical scalar in {what}")
        return value

    def point(self, curve: Curve, what: str) -> Point:
        size = 2 * curve.field._byte_length
        try:
            return Point.from_bytes(curve, self.take(size, what))
        except ValueError as exc:
            raise WireFormatError(f"invalid point in {what}: {exc}") from None

    def finish(self) -> None:
        if self.remaining:
            raise WireFormatError(f"{self.remaining} trailing bytes")


def point_wire_size(curve: Curve) -> int:
    """Serialized size of one point on ``curve`` (uncompressed affine)."""
    return 2 * curve.field._byte_length
