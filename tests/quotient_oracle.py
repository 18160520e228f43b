"""The quotient on one whole extended coset, kept as a test oracle.

The prover computes ``h`` one n-point part of its coset at a time
(:func:`repro.proving.prover.quotient`).  This is the computation that
replaced: every polynomial the constraint identity reads is evaluated
on the whole coset ``zeta * <omega_ext>`` of ``2^ext_k`` points by one
coset FFT, a rotation by ``r`` rows is a shift by ``r * 2^(ext_k - k)``
positions, and the combined constraint is divided by ``Z_H`` there and
brought back by one inverse coset FFT of ``2^ext_k`` points.  Any
``ext_k`` from the verifying key's ``extended_k`` up determines the
same ``h``.
"""

from __future__ import annotations

from typing import Callable

from repro.algebra.domain import EvaluationDomain
from repro.algebra.field import SCALAR_FIELD
from repro.plonkish.constraint_system import Column
from repro.proving.evaluation import Program, rotated
from repro.proving.protocol import (
    SYSTEM_SELECTORS,
    combined_constraint,
    opening_schedule,
)
from repro.proving.prover import _COLUMN_PATHS


def evaluate_on_coset(
    program: Program,
    column_ext: Callable[[Column], list[int]],
    ext_n: int,
    rotation_factor: int,
):
    """Every expression of ``program`` at every point of an extended
    coset whose columns ``column_ext`` gives (a query at rotation ``r``
    is the column shifted by ``r * rotation_factor`` points)."""
    return program.run(
        lambda column, rotation: rotated(column_ext(column), rotation * rotation_factor),
        ext_n,
    )


def quotient_on_coset(state, ext_k: int) -> tuple[list[list[int]], set[tuple]]:
    """``h``'s n-coefficient pieces, trimmed as the prover commits them,
    from the prover's state once round 4 has run -- and the paths of the
    polynomials the identity read."""
    pk, vk = state.pk, state.pk.vk
    p, n = SCALAR_FIELD.p, pk.domain.size
    ext = EvaluationDomain(SCALAR_FIELD, ext_k)
    shift = SCALAR_FIELD.multiplicative_generator
    factor = ext.size // n
    extended: dict[tuple, list[int]] = {}

    def values_of(path: tuple) -> list[int]:
        if path not in extended:
            extended[path] = ext.coset_fft(state.polys[path].coeffs, shift)
        return extended[path]

    slots = {
        evaluation: (commitment, rotation)
        for evaluation, commitment, rotation in opening_schedule(vk, state.queries, 0)
    }

    def opened(evaluation: tuple) -> list[int]:
        commitment, rotation = slots[evaluation]
        return rotated(values_of(commitment), rotation * factor)

    positions = [shift] * ext.size
    for t in range(1, ext.size):
        positions[t] = positions[t - 1] * ext.omega % p
    combined = combined_constraint(
        vk,
        [values_of(("system_commitments", name)) for name in SYSTEM_SELECTORS],
        positions,
        evaluate_on_coset(
            vk.program,
            lambda column: values_of((_COLUMN_PATHS[column.kind], column.index)),
            ext.size,
            factor,
        ),
        opened,
        state.challenges,
    )
    h = ext.coset_ifft(
        [c * SCALAR_FIELD.inv(pow(x, n, p) - 1) % p for c, x in zip(combined, positions)],
        shift,
    )
    while len(h) > 1 and h[-1] == 0:
        h.pop()
    return [h[i : i + n] for i in range(0, len(h), n)], set(extended)
