"""Proof verification (paper workflow phase 5).

The verifier checks the proof object has the shape the verifying key
pins (:meth:`~repro.proving.proof.Proof.has_shape`), replays the five
rounds to recompute every Fiat-Shamir challenge
(:func:`~repro.proving.protocol.draw_challenges` /
:meth:`~repro.proving.proof.Proof.absorb_round`), evaluates the
constraint identity of :mod:`repro.proving.protocol` at the random
point ``x`` using the opened evaluations, checks it equals
``h(x) * (x^n - 1)``, and finally checks the one IPA opening that
settles every evaluation (:mod:`repro.proving.multiopen` over
:func:`~repro.proving.protocol.opening_point_sets`), its linear-time
MSM deferred into a recursion
:class:`~repro.proving.recursion.Accumulator` -- the caller's, or one
of its own that it settles before returning.  Nothing here is a copy
of the prover: both sides walk the same schema, schedule and formulas.
"""

from __future__ import annotations

from repro.algebra.domain import EvaluationDomain
from repro.algebra.field import SCALAR_FIELD
from repro.plonkish.constraint_system import Column, ColumnKind
from repro.proving.keygen import VerifyingKey
from repro.proving.multiopen import OpeningClaim, PointSet, multi_verify
from repro.proving.proof import Proof
from repro.proving.protocol import (
    ROUND_CHALLENGES,
    SYSTEM_SELECTORS,
    collect_queries,
    combined_constraint,
    compress,
    draw_challenges,
    init_transcript,
    opening_point_sets,
    read,
)
from repro.proving.recursion import Accumulator


def verify_proof(
    vk: VerifyingKey,
    proof: Proof,
    instance: list[list[int]],
    accumulator: Accumulator | None = None,
) -> bool:
    """Check ``proof`` against the public ``instance`` values.

    ``instance`` holds one list of field values per instance column
    (padded with zeros to the circuit's row count by this function).

    With an ``accumulator``, ``True`` is provisional: the opening's
    two MSMs are still owed, and the caller settles them (with any
    other proofs') by ``accumulator.finalize()``.  Without one the
    proof gets its own accumulator, finalized here, and the answer is
    final.
    """
    p = SCALAR_FIELD.p
    cs = vk.cs
    n = vk.n_rows
    usable = vk.usable_rows
    params = vk.params
    domain = EvaluationDomain(SCALAR_FIELD, vk.k)
    queries = collect_queries(vk)

    # Structural checks before any crypto.
    if len(instance) != len(cs.instance_columns):
        return False
    if not proof.has_shape(vk, queries):
        return False

    padded_instance = []
    for values in instance:
        if len(values) > usable:
            return False
        padded_instance.append(
            [v % p for v in values] + [0] * (n - len(values))
        )

    # ---- replay the rounds, recomputing challenges --------------------------
    transcript = init_transcript(vk, padded_instance)
    challenges: dict[str, int] = {}
    for number in range(1, max(ROUND_CHALLENGES) + 1):
        challenges.update(draw_challenges(transcript, number))
        proof.absorb_round(transcript, number)
    x = challenges["x"]

    # ---- instance evaluations (computed, not opened) -----------------------
    # All Lagrange bases at each distinct point are batch-evaluated once
    # (one batch inversion) and shared across the instance queries at
    # that point.
    instance_evals: dict[tuple[int, int], int] = {}
    basis_at_rotation: dict[int, list[int]] = {}
    for ci, rotation in queries.instance:
        basis = basis_at_rotation.get(rotation)
        if basis is None:
            point = domain.rotated_point(x, rotation)
            basis = domain.lagrange_basis_evals(point, usable)
            basis_at_rotation[rotation] = basis
        value = 0
        column = padded_instance[ci]
        for i in range(usable):
            if column[i]:
                value = (value + column[i] * basis[i]) % p
        instance_evals[(ci, rotation)] = value

    def query_eval(col: Column, rotation: int) -> int:
        if col.kind is ColumnKind.ADVICE:
            return proof.advice_evals[(col.index, rotation)]
        if col.kind is ColumnKind.FIXED:
            return proof.fixed_evals[(col.index, rotation)]
        return instance_evals[(col.index, rotation)]

    # ---- the constraint identity at x ---------------------------------------
    (combined,) = combined_constraint(
        vk,
        [[proof.system_evals[name]] for name in SYSTEM_SELECTORS],
        vk.program.run(lambda col, rotation: [query_eval(col, rotation)], 1),
        lambda path: [read(proof, path)],
        challenges,
    )
    # h(x) * (x^n - 1) must equal the combined constraint value.
    x_to_n = pow(x, n, p)
    h_x = compress(reversed(proof.h_evals), x_to_n, p)
    if combined != h_x * ((x_to_n - 1) % p) % p:
        return False

    # ---- verify the opening of every evaluation ------------------------------
    sets = []
    for rotations, members in opening_point_sets(
        vk, queries, len(proof.h_commitments)
    ):
        # Fixed and system commitments are the verifying key's.
        claims = [
            OpeningClaim(
                read(vk if hasattr(vk, commitment[0]) else proof, commitment),
                [read(proof, evaluation) for evaluation in evaluations],
            )
            for commitment, evaluations in members
        ]
        sets.append(PointSet([domain.rotated_point(x, r) for r in rotations], claims))
    own = Accumulator(params) if accumulator is None else accumulator
    return multi_verify(
        params, transcript, sets, proof.multiopen_f[0], proof.multiopen_q_evals,
        proof.openings[0], own,
    ) and (accumulator is not None or own.finalize())
