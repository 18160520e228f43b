"""Recursive proof composition: the Halo-style accumulator.

Verifying an IPA opening costs one MSM that is *linear* in the
commitment size -- too expensive to do per proof when many proofs are
checked (or when a proof is verified inside another circuit).  The
accumulation trick [Bowe-Grigg-Hopwood 2019; BCMS 2020] observes that
every opening check has the shape::

    msm(G, a * s) + msm(bases, scalars) == identity

where ``s`` is a tensor of the round challenges and ``(bases, scalars)``
are the proof's own terms (its commitments, its round points, ``u`` and
``w``).  Taking a random linear combination of many such claims yields a
single claim of the same shape, so a batch of proofs needs **one**
fixed-base MSM over ``G`` and **one** variable-base MSM over the union of
the terms, in which a base that several proofs share (a verifying key's
commitment, ``u``, ``w``) appears once -- this is the "recursive proof
composition technique reducing the overall proof size and computational
overhead" the paper builds on.

The accumulator owes two kinds of claim: IPA openings
(:meth:`Accumulator.defer_opening`) and plain group identities
(:meth:`Accumulator.defer_identity`, "this combination of points is the
identity"), such as a scan link ``advice - db - delta * W == 0``.  Each
claim gets its own random weight and lands in the same base -> scalar
map, so an identity costs no multiplication of its own: its bases join
the one variable-base MSM.

:class:`Accumulator` collects deferred claims; :meth:`Accumulator.finalize`
performs the single combined check.  Lifecycle rules:

- The accumulator is bound to one exact parameter set by its content
  fingerprint (:meth:`repro.commit.params.PublicParams.fingerprint`).
  Folding a claim reduced against *any other* parameters -- even one
  with the same size but different generators -- would mix bases and
  silently verify nothing, so a mismatch raises
  :class:`~repro.errors.StateError`.
- :meth:`finalize` **consumes** the accumulator.  The folded claims are
  spent by the check; keeping them around would let a reused
  accumulator re-fold stale claims (or let a failed batch re-verify
  double-count).  After finalize, :meth:`defer_opening`,
  :meth:`defer_identity` and a second :meth:`finalize` raise
  :class:`~repro.errors.StateError` -- callers start a fresh
  accumulator per batch.
"""

from __future__ import annotations

from typing import Sequence

from repro.algebra.field import SCALAR_FIELD
from repro.commit.ipa import IpaProof, reduce_opening
from repro.commit.params import PublicParams
from repro.ecc import fixed_base
from repro.ecc.curve import (
    Point,
    points_from_affine_tuples,
    points_to_affine_tuples,
)
from repro.ecc.msm import msm
from repro.errors import StateError
from repro.transcript import Transcript


class Accumulator:
    """Accumulates deferred IPA opening claims and group identities.

    The random combination weights are the verifier's own coins (they
    must be unpredictable to the prover, which local randomness
    guarantees for a verifier checking received proofs).
    """

    def __init__(self, params: PublicParams):
        self.params = params
        #: Content hash of the exact parameter set every folded claim
        #: must have been reduced against.
        self.params_fingerprint = params.fingerprint()
        self._scalars = [0] * params.n
        #: Every deferred claim's variable-base terms, weighted by that
        #: claim's ``rho``: affine base -> summed scalar.
        self._terms: dict[tuple[int, int], int] = {}
        self._deferred = 0
        self._consumed = False

    @property
    def deferred_count(self) -> int:
        return self._deferred

    @property
    def consumed(self) -> bool:
        """True once :meth:`finalize` has spent this accumulator's
        claims."""
        return self._consumed

    def _require_live(self, action: str) -> None:
        if self._consumed:
            raise StateError(
                f"accumulator already consumed by finalize(); "
                f"cannot {action} -- create a fresh Accumulator per batch"
            )

    def defer_opening(
        self,
        params: PublicParams,
        transcript: Transcript,
        commitment: tuple[Sequence[Point], Sequence[int]],
        x: int,
        value: int,
        proof: IpaProof,
    ) -> bool:
        """Run the logarithmic checks now; stash both MSMs' terms.

        ``commitment`` is a ``(bases, scalars)`` combination, as
        :func:`~repro.commit.ipa.reduce_opening` takes it.  Returns
        False if the proof is structurally malformed (callers treat
        that as an immediate verification failure).  Raises
        :class:`~repro.errors.StateError` when ``params`` is not the
        exact parameter set this accumulator is bound to (equal size is
        not enough: different generators fold into the wrong bases) or
        when the accumulator was already finalized.
        """
        self._require_live("defer another opening")
        if params.fingerprint() != self.params_fingerprint:
            raise StateError(
                "accumulator bound to different public parameters "
                f"(fingerprint {self.params_fingerprint[:12]}..., got "
                f"{params.fingerprint()[:12]}...)"
            )
        reduced = reduce_opening(
            params, transcript, commitment, x, value, proof
        )
        if reduced is None:
            return False
        s, a, (bases, scalars) = reduced
        rho = self._add_terms(bases, scalars)
        p = SCALAR_FIELD.p
        weight = rho * a % p
        fixed = self._scalars
        for i, si in enumerate(s):
            fixed[i] = (fixed[i] + weight * si) % p
        self._deferred += 1
        return True

    def defer_identity(
        self, bases: Sequence[Point], scalars: Sequence[int]
    ) -> None:
        """Owe the claim ``sum(scalars[i] * bases[i]) == identity``.

        It is settled by :meth:`finalize` with every other deferred
        claim, for the price of its bases' places in the one
        variable-base MSM.  Raises :class:`~repro.errors.StateError`
        once the accumulator was finalized.
        """
        self._require_live("defer another identity")
        self._add_terms(bases, scalars)

    def _add_terms(self, bases: Sequence[Point], scalars: Sequence[int]) -> int:
        """Weight ``(bases, scalars)`` by a fresh ``rho`` into the term
        map; returns that ``rho``.  One fresh weight per claim: a
        weight shared by two claims would let their errors cancel."""
        rho = SCALAR_FIELD.rand()
        p = SCALAR_FIELD.p
        terms = self._terms
        for base, c in zip(points_to_affine_tuples(list(bases)), scalars):
            terms[base] = (terms.get(base, 0) + rho * c) % p
        return rho

    def finalize(self) -> bool:
        """Settle every deferred claim at once, consuming the
        accumulator: one fixed-base MSM over ``params.g`` (skipped when
        no opening was deferred) plus one variable-base MSM over the
        summed terms, whatever the number of claims.

        The claims are spent whether the check passes or fails; any
        further :meth:`defer_opening`, :meth:`defer_identity` or
        :meth:`finalize` raises :class:`~repro.errors.StateError`.
        """
        self._require_live("finalize")
        total = self.params.curve.identity()
        if self._deferred:
            tables = fixed_base.tables_for_params(self.params)
            total = fixed_base.fixed_base_msm(tables, self._scalars)
        if self._terms:
            bases = points_from_affine_tuples(self.params.curve, list(self._terms))
            total = total + msm(bases, list(self._terms.values()))
        self._consume()
        return total.is_identity()

    def _consume(self) -> None:
        self._consumed = True
        self._scalars = []
        self._terms = {}
