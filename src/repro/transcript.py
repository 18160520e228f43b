"""Fiat-Shamir transcript.

The paper's proofs are *non-interactive*: every verifier challenge is
derived by hashing the transcript of all prior prover messages (the
Fiat-Shamir heuristic applied to the public-coin Halo2 protocol).  Both
prover and verifier drive an identical :class:`Transcript`; any
divergence in absorbed data changes every subsequent challenge and the
proof fails to verify.

The sponge is a simple BLAKE2b chain: absorbing hashes
``state || label || data`` into a new state; squeezing hashes
``state || counter`` into 64 bytes reduced into the scalar field.

Variable-length absorptions (:meth:`Transcript.absorb_scalars`,
:meth:`Transcript.absorb_points`) are framed with an element-count
prefix so two different lists can never concatenate to the same byte
stream across absorption boundaries -- the domain label is ``v2`` to
separate this framing from the unframed ``v1`` encoding.
"""

from __future__ import annotations

import hashlib

from repro.algebra.field import Field, SCALAR_FIELD
from repro.ecc.curve import Point


class Transcript:
    """A Fiat-Shamir sponge bound to a challenge field."""

    __slots__ = ("field", "_state", "_counter")

    def __init__(self, label: bytes, field: Field = SCALAR_FIELD):
        self.field = field
        self._state = hashlib.blake2b(
            b"poneglyphdb-transcript-v2:" + label, digest_size=64
        ).digest()
        self._counter = 0

    # -- absorbing ----------------------------------------------------------

    def absorb_bytes(self, label: bytes, data: bytes) -> None:
        h = hashlib.blake2b(digest_size=64)
        h.update(self._state)
        h.update(len(label).to_bytes(4, "little"))
        h.update(label)
        h.update(data)
        self._state = h.digest()
        self._counter = 0

    def absorb_scalar(self, label: bytes, value: int) -> None:
        self.absorb_bytes(label, self.field.to_bytes(value))

    def absorb_scalars(self, label: bytes, values: list[int]) -> None:
        joined = b"".join(self.field.to_bytes(v) for v in values)
        self.absorb_bytes(label, len(values).to_bytes(4, "little") + joined)

    def absorb_point(self, label: bytes, point: Point) -> None:
        self.absorb_bytes(label, point.to_bytes())

    def absorb_points(self, label: bytes, points: list[Point]) -> None:
        joined = b"".join(pt.to_bytes() for pt in points)
        self.absorb_bytes(label, len(points).to_bytes(4, "little") + joined)

    # -- squeezing -----------------------------------------------------------

    def challenge_scalar(self, label: bytes) -> int:
        """Squeeze a nonzero field element.

        Challenges are rejection-sampled away from 0 and 1: several
        protocol denominators (permutation grand products, lookup sums)
        must not vanish, and the probability of resampling is
        negligible anyway.
        """
        while True:
            h = hashlib.blake2b(digest_size=64)
            h.update(self._state)
            h.update(b"challenge:")
            h.update(label)
            h.update(self._counter.to_bytes(8, "little"))
            self._counter += 1
            value = int.from_bytes(h.digest(), "little") % self.field.p
            if value not in (0, 1):
                return value

    def challenge_scalars(self, label: bytes, count: int) -> list[int]:
        return [self.challenge_scalar(label) for _ in range(count)]

    def fork(self, label: bytes) -> "Transcript":
        """An independent transcript branch (used by the recursive
        accumulator to derive sub-challenges)."""
        child = Transcript(label, self.field)
        child.absorb_bytes(b"fork-parent", self._state)
        return child
