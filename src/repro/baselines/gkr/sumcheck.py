"""The sumcheck protocol for the GKR layer polynomial.

Proves claims of the form::

    claim = sum over x in {0,1}^m of  A(x)*(B(x) + C(x)) + D(x)*B(x)*C(x)

where A, B, C, D are multilinear (given as dense tables).  This is
exactly the per-layer polynomial of GKR: A/D are the add/mul wiring
predicates restricted at the layer challenge, B/C the next layer's
value extension in the two gate-input variable blocks.

Each round sends the degree-3 restriction of the remaining sum as its
evaluations at t = 0, 1, 2, 3 (the product D*B*C reaches degree 3 per
variable in general; GKR's structured tables stay at 2, but the extra
evaluation keeps the protocol sound for any multilinear inputs);
Fiat-Shamir supplies the challenges.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.field import SCALAR_FIELD
from repro.transcript import Transcript


@dataclass
class SumcheckProof:
    #: per-round (g(0), g(1), g(2), g(3)) evaluations
    rounds: list[tuple[int, int, int, int]]


def _h(a: int, b: int, c: int, d: int, p: int) -> int:
    return (a * ((b + c) % p) + d * b % p * c) % p


def sumcheck_prove(
    tables: tuple[list[int], list[int], list[int], list[int]],
    transcript: Transcript,
) -> tuple[SumcheckProof, list[int], tuple[int, int, int, int]]:
    """Run the prover; returns the proof, the challenge point, and the
    final (A, B, C, D) evaluations at that point."""
    p = SCALAR_FIELD.p
    a, b, c, d = (list(t) for t in tables)
    m = (len(a) - 1).bit_length()
    if any(len(t) != 1 << m for t in (a, b, c, d)):
        raise ValueError("tables must share a power-of-two size")

    rounds: list[tuple[int, int, int, int]] = []
    challenges: list[int] = []
    for _ in range(m):
        half = len(a) // 2
        g0 = g1 = g2 = g3 = 0
        for i in range(half):
            a0, a1 = a[2 * i], a[2 * i + 1]
            b0, b1 = b[2 * i], b[2 * i + 1]
            c0, c1 = c[2 * i], c[2 * i + 1]
            d0, d1 = d[2 * i], d[2 * i + 1]
            g0 += _h(a0, b0, c0, d0, p)
            g1 += _h(a1, b1, c1, d1, p)
            g2 += _h(
                (2 * a1 - a0) % p,
                (2 * b1 - b0) % p,
                (2 * c1 - c0) % p,
                (2 * d1 - d0) % p,
                p,
            )
            g3 += _h(
                (3 * a1 - 2 * a0) % p,
                (3 * b1 - 2 * b0) % p,
                (3 * c1 - 2 * c0) % p,
                (3 * d1 - 2 * d0) % p,
                p,
            )
        message = (g0 % p, g1 % p, g2 % p, g3 % p)
        rounds.append(message)
        transcript.absorb_scalars(b"sumcheck-round", list(message))
        r = transcript.challenge_scalar(b"sumcheck-r")
        challenges.append(r)
        a = [(a[2 * i] + r * (a[2 * i + 1] - a[2 * i])) % p for i in range(half)]
        b = [(b[2 * i] + r * (b[2 * i + 1] - b[2 * i])) % p for i in range(half)]
        c = [(c[2 * i] + r * (c[2 * i + 1] - c[2 * i])) % p for i in range(half)]
        d = [(d[2 * i] + r * (d[2 * i + 1] - d[2 * i])) % p for i in range(half)]
    return SumcheckProof(rounds), challenges, (a[0], b[0], c[0], d[0])


def _eval_cubic(g0: int, g1: int, g2: int, g3: int, t: int, p: int) -> int:
    """Lagrange interpolation of a cubic through t = 0, 1, 2, 3."""
    inv2 = (p + 1) // 2
    inv6 = pow(6, p - 2, p)
    l0 = (t - 1) * (t - 2) % p * (t - 3) % p * (p - inv6) % p
    l1 = t * (t - 2) % p * (t - 3) % p * inv2 % p
    l2 = t * (t - 1) % p * (t - 3) % p * (p - inv2) % p
    l3 = t * (t - 1) % p * (t - 2) % p * inv6 % p
    return (g0 * l0 + g1 * l1 + g2 * l2 + g3 * l3) % p


def sumcheck_verify(
    claim: int,
    proof: SumcheckProof,
    transcript: Transcript,
) -> tuple[bool, list[int], int]:
    """Check the round consistency; returns (ok, challenge point,
    final reduced claim) -- the caller must still check the final claim
    against the actual polynomial at the challenge point."""
    p = SCALAR_FIELD.p
    current = claim % p
    challenges: list[int] = []
    for g0, g1, g2, g3 in proof.rounds:
        if (g0 + g1) % p != current:
            return False, challenges, 0
        transcript.absorb_scalars(
            b"sumcheck-round", [g0 % p, g1 % p, g2 % p, g3 % p]
        )
        r = transcript.challenge_scalar(b"sumcheck-r")
        challenges.append(r)
        current = _eval_cubic(g0, g1, g2, g3, r, p)
    return True, challenges, current
