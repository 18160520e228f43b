"""Proof generation (paper workflow phase 4).

``create_proof`` is a driver over :data:`ROUNDS`: per round it opens
the span, draws the round's challenges, runs the round function over
the :class:`ProverState` and absorbs the message the round added to the
proof.  Round functions never touch the transcript (multiopen excepted:
the opening argument is its own sub-protocol), so the order of prover
messages exists once -- in the proof schema, where the verifier replays
it from (:meth:`~repro.proving.proof.Proof.absorb_round`).  What is opened
where is :func:`~repro.proving.protocol.opening_point_sets`; the
constraints are :func:`~repro.proving.protocol.combined_constraint`,
the function the verifier evaluates at ``x``, here on the coset.

The prover's asymptotics match the paper's design goals: committing
and FFT-ing each column is ``O(n log n)`` field work plus one ``O(n)``
MSM, the quotient is evaluated on an extended domain whose size is
governed by the *maximum constraint degree* ``d`` -- ``2^ceil(log2(d -
1)) * n`` points, what it takes to determine ``h``
(:meth:`~repro.plonkish.constraint_system.ConstraintSystem.quotient_extension`)
-- which is why every gate in :mod:`repro.gates` is engineered for low
degree.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cache
from itertools import islice
from operator import mul
from typing import Callable

from repro import telemetry
from repro.errors import ReproError
from repro.algebra.field import SCALAR_FIELD
from repro.algebra.poly import evaluate_coeffs
from repro.commit.ipa import commit_lagrange_many, commit_polynomials
from repro.ecc.curve import Point
from repro.plonkish.assignment import Assignment
from repro.plonkish.constraint_system import ColumnKind
from repro.plonkish.expression import Expression
from repro.proving.evaluation import argument_expressions, rotated
from repro.proving.keygen import PolyData, ProvingKey
from repro.proving.multiopen import OpeningClaim, PointSet, multi_open
from repro.proving.proof import LookupProofPart, Proof, ShuffleProofPart
from repro.proving.protocol import (
    SYSTEM_SELECTORS,
    QuerySet,
    cell,
    collect_queries,
    combined_constraint,
    draw_challenges,
    init_transcript,
    lookup_denominators,
    opening_point_sets,
    opening_schedule,
    quotient_paths,
    shuffle_fractions,
)
from repro.transcript import Transcript


@dataclass
class ProverTiming:
    """Wall-clock breakdown of one proof generation, in seconds.

    This instrumentation feeds the paper's Figures 8 and 9 (per-step
    proof-generation breakdowns).  The numbers come from the telemetry
    spans the prover always measures (``prove.commit_advice`` etc.);
    with telemetry *enabled* the same spans additionally land in the
    ambient trace with full parent/child structure.
    """

    commit_advice: float = 0.0
    lookups: float = 0.0
    #: round 3: the shuffle products and the lookup sums (the name is
    #: older; ``benchmarks/e2e/layers.py`` reads it)
    permutations: float = 0.0
    quotient: float = 0.0
    evaluations: float = 0.0
    multiopen: float = 0.0
    total: float = 0.0
    extra: dict[str, float] = dc_field(default_factory=dict)


class ProvingError(ReproError, ValueError):
    """Raised when the witness cannot satisfy the circuit (e.g. a lookup
    input value missing from its table)."""


@dataclass
class ProverState:
    """Everything one proof generation carries from round to round."""

    pk: ProvingKey
    assignment: Assignment
    transcript: Transcript  # read by the driver and by multiopen only
    queries: QuerySet
    blind_overrides: dict[int, int]
    proof: Proof  # filled round by round
    #: The polynomial behind every commitment, keyed by the path
    #: :func:`~repro.proving.protocol.opening_schedule` gives it.
    polys: dict[tuple, PolyData]
    #: The values of those polynomials over the domain's rows (every
    #: column committed so far), under the same paths.
    columns: dict[tuple, list[int]] = dc_field(default_factory=dict)
    #: Expression values over the usable rows (:func:`_row_values`).
    rows: Callable[[Expression], list[int]] | None = None
    point_sets: list[PointSet] = dc_field(default_factory=list)
    #: Challenges by name, added by the driver as each round opens.
    challenges: dict[str, int] = dc_field(default_factory=dict)


def create_proof(
    pk: ProvingKey,
    assignment: Assignment,
    timing: ProverTiming | None = None,
    advice_blind_overrides: dict[int, int] | None = None,
) -> Proof:
    """Generate a non-interactive proof for ``assignment``.

    The assignment's instance columns are the public statement; all
    advice is witness.  Blinding rows are filled here.

    ``advice_blind_overrides`` pins the Pedersen blind of selected
    advice columns (by index) -- database scans use this so the prover
    can reveal the blinding delta that links the advice commitment to
    the public database commitment.
    """
    sw_total = telemetry.stopwatch().start()
    assignment.fill_blinding()
    state = ProverState(
        pk=pk,
        assignment=assignment,
        transcript=init_transcript(pk.vk, assignment.instance),
        queries=collect_queries(pk.vk),
        blind_overrides=advice_blind_overrides or {},
        proof=Proof([], [], [], []),
        polys=pk.polys(),
    )
    for number, (span, timing_field, run_round) in enumerate(ROUNDS, start=1):
        phase = telemetry.begin_span(span)
        state.challenges.update(draw_challenges(state.transcript, number))
        work = run_round(state)
        state.proof.absorb_round(state.transcript, number)
        phase.set(**work).end()
        if timing:
            setattr(timing, timing_field, phase.duration)
    sw_total.end()
    if timing:
        timing.total = sw_total.duration
    return state.proof


#: Where the schedule finds each column kind's commitment.
_COLUMN_PATHS = {
    ColumnKind.ADVICE: "advice_commitments",
    ColumnKind.FIXED: "fixed_commitments",
    ColumnKind.INSTANCE: "instance",  # computed by the verifier, never opened
}


def _commit_columns(
    state: ProverState,
    columns: list[list[int]],
    paths: list[tuple],
    pinned_blinds: dict[int, int] | None = None,
) -> list[Point]:
    """iFFT, blind and commit evaluation-form columns, and remember
    under ``paths`` how to open each.  The MSMs take the column values
    (narrow scalars); the coefficients are for the later rounds."""
    pk = state.pk
    coeffs = pk.domain.ifft_many(columns)
    blinds = [SCALAR_FIELD.rand() for _ in columns]
    if pinned_blinds:
        blinds = [pinned_blinds.get(i, blind) for i, blind in enumerate(blinds)]
    commitments = commit_lagrange_many(pk.vk.params, list(zip(columns, blinds)))
    for path, poly, commitment, blind in zip(paths, coeffs, commitments, blinds):
        state.polys[path] = PolyData(poly, commitment=commitment, blind=blind)
    state.columns.update(zip(paths, columns))
    return commitments


def _row_values(state: ProverState) -> Callable[[Expression], list[int]]:
    """The values of the lookup and shuffle expressions on every usable
    row of the assignment: the verifying key's program,
    run once and memoized (the lookup round and the grand-product round
    read the same ones)."""
    if state.rows is None:
        vk, asg = state.pk.vk, state.assignment
        usable = asg.usable_rows
        values = vk.program.run(
            lambda column, rotation: rotated(asg.values_of(column), rotation)[:usable],
            usable,
            roots=argument_expressions(vk.cs, vk.lookup_arguments),
        )
        state.rows = cache(values)
    return state.rows


def _grand_product(state: ProverState, numer, denom, name: str) -> list[int]:
    """The column ``Z`` with ``Z[0] = 1`` that steps by each usable
    row's fraction ``numer / denom``, random past ``Z[usable]``.  A
    product that does not return to 1 has no witness and raises
    :class:`ProvingError` naming shuffle ``name``."""
    p, n = SCALAR_FIELD.p, state.pk.domain.size
    usable = state.pk.vk.usable_rows
    denom_inv = SCALAR_FIELD.batch_inv(denom)
    z = [0] * n
    z[0] = 1
    for i in range(usable):
        z[i + 1] = z[i] * numer[i] % p * denom_inv[i] % p
    if z[usable] != 1:
        raise ProvingError(
            f"shuffle {name!r} grand product does not close; the two sides "
            "are not equal as multisets"
        )
    for i in range(usable + 1, n):
        z[i] = SCALAR_FIELD.rand()
    return z


# ---- round 1: commit advice columns ---------------------------------------
def commit_advice(state: ProverState) -> dict:
    advice = state.assignment.advice
    state.proof.advice_commitments = _commit_columns(
        state,
        list(advice),
        [("advice_commitments", i) for i in range(len(advice))],
        state.blind_overrides,
    )
    return {"columns": len(advice)}


# ---- round 2: lookup multiplicities (theta) --------------------------------
def lookup_commit(state: ProverState) -> dict:
    """Per lookup argument the column ``m``: how many input cells, over
    all of its lookups and usable rows, equal each table row (a repeated
    table value is booked on its first row).  Counted on the raw tuples,
    so ``m`` is fixed before ``beta`` -- and ``theta`` -- can matter."""
    vk = state.pk.vk
    columns = []
    for argument in vk.lookup_arguments:
        m = _multiplicities(state, argument)
        blinds = [SCALAR_FIELD.rand() for _ in range(vk.n_rows - vk.usable_rows)]
        columns.append(m + blinds)
    commitments = _commit_columns(
        state,
        columns,
        [("lookup_parts", i, "m_commitment") for i in range(len(columns))],
    )
    state.proof.lookup_parts = [LookupProofPart(c) for c in commitments]
    return {"lookups": len(vk.cs.lookups)}


def _multiplicities(state: ProverState, argument) -> list[int]:
    """The column ``m`` of one lookup argument over the usable rows;
    :class:`ProvingError` for an input value its table does not hold."""
    usable = state.pk.vk.usable_rows

    def tuples(exprs):
        return zip(*map(_row_values(state), exprs))

    first_row: dict[tuple, int] = {}
    for row, value in enumerate(tuples(argument.table)):
        first_row.setdefault(value, row)
    m = [0] * usable
    for lookup in argument.lookups:
        telemetry.incr("lookup.rows", usable)
        for value in tuples(lookup.inputs):
            row = first_row.get(value)
            if row is None:
                raise ProvingError(
                    f"lookup {lookup.name!r}: input value {value} not in table"
                )
            m[row] += 1
    return m


def _log_derivative_columns(
    state: ProverState, i: int
) -> tuple[list[list[int]], list[int]]:
    """The columns lookup argument ``i`` sends once ``beta`` is known:
    the helpers (:func:`_lookup_helpers`) and the running sum
    (:func:`_running_sum`), random past the rows the constraints
    read."""
    usable = state.pk.vk.usable_rows
    helpers, table_inverses = _lookup_helpers(state, i)
    m = state.columns[("lookup_parts", i, "m_commitment")]
    phi = _running_sum(i, helpers, table_inverses, m)
    blinding = state.pk.domain.size - usable
    return (
        [h + [SCALAR_FIELD.rand() for _ in range(blinding)] for h in helpers],
        phi + [SCALAR_FIELD.rand() for _ in range(blinding - 1)],
    )


def _lookup_helpers(
    state: ProverState, i: int
) -> tuple[list[list[int]], list[int]]:
    """Per group of lookup argument ``i`` the helper ``h_g = sum_{f in
    g} 1 / (beta + f)`` over the usable rows, and ``1 / (beta + t)``
    for its table: one batch inversion for all of them."""
    vk = state.pk.vk
    p, usable = SCALAR_FIELD.p, vk.usable_rows
    groups, table = lookup_denominators(
        vk,
        vk.lookup_arguments[i],
        _row_values(state),
        state.challenges,
    )
    # Inverted in one batch and read back in the order they went in:
    # one column per lookup, group by group, then the table's.
    inverses = iter(
        SCALAR_FIELD.batch_inv(
            [d for group in groups for column in group for d in column] + table
        )
    )
    helpers = [
        [sum(row) % p for row in zip(*[list(islice(inverses, usable)) for _ in group])]
        for group in groups
    ]
    return helpers, list(inverses)


def _running_sum(
    i: int, helpers: list[list[int]], table_inverses: list[int], m: list[int]
) -> list[int]:
    """The running sum ``phi`` of lookup argument ``i``: ``phi[0] = 0``,
    stepping by ``sum_g h_g - m / (beta + t)`` on every usable row.  A
    sum that does not return to 0 has no witness and raises
    :class:`ProvingError`."""
    p = SCALAR_FIELD.p
    phi = [0] * (len(table_inverses) + 1)
    for row, (table_inverse, *cells) in enumerate(zip(table_inverses, *helpers)):
        phi[row + 1] = (phi[row] + sum(cells) - m[row] * table_inverse) % p
    if phi[-1]:
        raise ProvingError(f"lookup argument {i}: the running sum does not close")
    return phi


# ---- round 3: grand products and lookup sums (beta, gamma) -----------------
def grand_products(state: ProverState) -> dict:
    proof, vk = state.proof, state.pk.vk
    helpers: list[list[int]] = []
    sums: list[list[int]] = []
    for i in range(len(vk.lookup_arguments)):
        columns, phi = _log_derivative_columns(state, i)
        helpers += columns
        sums.append(phi)
    proof.lookup_helper_commitments = _commit_columns(
        state,
        helpers,
        [("lookup_helper_commitments", g) for g in range(len(helpers))],
    )
    phi_commitments = _commit_columns(
        state,
        sums,
        [("lookup_parts", i, "phi_commitment") for i in range(len(sums))],
    )
    for part, commitment in zip(proof.lookup_parts, phi_commitments):
        part.phi_commitment = commitment
    fractions = shuffle_fractions(vk, _row_values(state), state.challenges)
    for si, (shuffle, fraction) in enumerate(zip(vk.cs.shuffles, fractions)):
        z = _grand_product(state, *fraction, shuffle.name)
        (commitment,) = _commit_columns(
            state, [z], [("shuffle_parts", si, "z_commitment")]
        )
        proof.shuffle_parts.append(ShuffleProofPart(commitment))
    return {"shuffles": len(vk.cs.shuffles)}


def _opened_values(state: ProverState, values_of):
    """The ``opened`` argument of the constraint identity: resolves an
    evaluation path through the opening schedule to ``values_of
    (commitment path)`` rotated by the evaluation's rotation (one row,
    one position: every part of the quotient's coset is a coset of the
    row domain)."""
    slots = {
        evaluation: (commitment, rotation)
        for evaluation, commitment, rotation in opening_schedule(
            state.pk.vk, state.queries, 0
        )
    }

    def opened(evaluation: tuple) -> list[int]:
        commitment, rotation = slots[evaluation]
        return rotated(values_of(commitment), rotation)

    return opened


# ---- round 4: quotient polynomial (y) --------------------------------------
def quotient(state: ProverState) -> dict:
    """``h = C / Z_H`` for the combined constraint ``C``, one part of
    the extended coset at a time (:func:`_quotient_part`), and ``h``'s
    n-coefficient pieces committed."""
    pk = state.pk
    for ci, coeffs in enumerate(pk.domain.ifft_many(list(state.assignment.instance))):
        state.polys[("instance", ci)] = PolyData(coeffs)
    paths = quotient_paths(pk.vk, state.queries)
    remainders: list[list[int]] = []
    peak = 0
    for shift, key_values in zip(pk.part_shifts, pk.coset_parts):
        remainder, held = _quotient_part(state, paths, shift, key_values)
        peak = max(peak, held + sum(map(len, remainders)))
        remainders.append(remainder)
    telemetry.gauge("quotient.peak_extended_values", peak)

    pieces = _quotient_pieces(remainders, pk.part_shifts[0])
    blinds = [SCALAR_FIELD.rand() for _ in pieces]
    commitments = commit_polynomials(pk.vk.params, list(zip(pieces, blinds)))
    state.proof.h_commitments = commitments
    for i, (piece, commitment, blind) in enumerate(zip(pieces, commitments, blinds)):
        state.polys[("h_commitments", i)] = PolyData(
            piece, commitment=commitment, blind=blind
        )
    return {"extended_n": pk.domain.size * len(remainders)}


def _quotient_part(
    state: ProverState, paths: list[tuple], shift: int, key_values: dict
) -> tuple[list[int], int]:
    """``h mod (X^n - shift^n)`` from the part ``shift * H`` of the
    extended coset, and how many values the part evaluated.

    The polynomials under ``paths`` are evaluated there by one n-point
    coset FFT (``key_values`` holds the key's), a rotation by ``r`` rows
    is a shift by ``r`` positions inside the part, and ``Z_H = shift^n
    - 1`` is one constant.  Dividing by it and one n-point inverse
    coset FFT give the remainder; the evaluations go with the call."""
    pk, vk = state.pk, state.pk.vk
    p, n = SCALAR_FIELD.p, pk.domain.size
    coeffs = [state.polys[path].coeffs for path in paths]
    fresh = pk.domain.coset_fft_many(coeffs, shift)
    values = {**key_values, **dict(zip(paths, fresh))}
    combined = combined_constraint(
        vk,
        [values[("system_commitments", name)] for name in SYSTEM_SELECTORS],
        vk.program.run(
            lambda column, rotation: rotated(
                values[_COLUMN_PATHS[column.kind], column.index], rotation
            ),
            n,
        ),
        _opened_values(state, values.__getitem__),
        state.challenges,
    )
    zh_inv = SCALAR_FIELD.inv(pow(shift, n, p) - 1)
    remainder = pk.domain.coset_ifft([c * zh_inv % p for c in combined], shift)
    return remainder, sum(map(len, fresh))


def _quotient_pieces(remainders: list[list[int]], zeta: int) -> list[list[int]]:
    """The n-coefficient pieces ``h_0, h_1, ..`` of ``h = sum_q h_q
    X^(qn)`` from its remainders ``r_j = h mod (X^n - c_j)`` on the
    parts, ``c_j = s_j^n = zeta^n * w^j`` with ``w`` a primitive R-th
    root of unity: ``r_j = sum_q zeta^(qn) w^(jq) h_q``, so an R-point
    inverse DFT per coefficient index, scaled by ``zeta^(-qn)``, gives
    the pieces.  Trailing zero coefficients are trimmed (at least one
    stays), so the last piece may be short and all-zero ones go."""
    p = SCALAR_FIELD.p
    parts, n = len(remainders), len(remainders[0])
    w_inv = SCALAR_FIELD.inv(SCALAR_FIELD.root_of_unity_of_order(parts))
    zeta_n_inv = SCALAR_FIELD.inv(pow(zeta, n, p))
    # weights[q][j] = zeta^(-qn) * w^(-jq) / R
    scale = SCALAR_FIELD.inv(parts)
    weights = []
    for q in range(parts):
        row, step = [], pow(w_inv, q, p)
        for j in range(parts):
            row.append(scale * pow(step, j, p) % p)
        weights.append(row)
        scale = scale * zeta_n_inv % p
    by_index = list(zip(*remainders))
    pieces = [
        [sum(map(mul, row, column)) % p for column in by_index] for row in weights
    ]
    while len(pieces) > 1 and not any(pieces[-1]):
        pieces.pop()
    last = pieces[-1]
    while len(last) > 1 and last[-1] == 0:
        last.pop()
    return pieces


# ---- round 5: evaluations at x ---------------------------------------------
def evaluations(state: ProverState) -> dict:
    pk, proof = state.pk, state.proof
    vk = pk.vk
    p = SCALAR_FIELD.p
    proof.lookup_helper_evals = [0] * len(proof.lookup_helper_commitments)
    proof.h_evals = [0] * len(proof.h_commitments)
    x = state.challenges["x"]
    for rotations, members in opening_point_sets(
        vk, state.queries, len(proof.h_commitments)
    ):
        points = [pk.domain.rotated_point(x, r) for r in rotations]
        claims = []
        for commitment, evaluations in members:
            poly = state.polys[commitment]
            values = [evaluate_coeffs(poly.coeffs, point, p) for point in points]
            for evaluation, value in zip(evaluations, values):
                container, key = cell(proof, evaluation)
                container[key] = value
            claims.append(
                OpeningClaim(poly.commitment, values, poly.coeffs, poly.blind)
            )
        state.point_sets.append(PointSet(points, claims))
    return {}


# ---- multiopen --------------------------------------------------------------
def multiopen(state: ProverState) -> dict:
    vk, proof = state.pk.vk, state.proof
    f_commitment, proof.multiopen_q_evals, opening = multi_open(
        vk.params, state.transcript, state.point_sets
    )
    proof.multiopen_f, proof.openings = [f_commitment], [opening]
    return {"point_sets": len(state.point_sets)}


#: The rounds, in order: (telemetry span, ProverTiming field, function).
#: The span names are also what ``tests/test_telemetry.py`` expects and
#: what the benchmark of record books kernel time under.
ROUNDS = (
    ("prove.commit_advice", "commit_advice", commit_advice),
    ("prove.lookup_commit", "lookups", lookup_commit),
    ("prove.grand_products", "permutations", grand_products),
    ("prove.quotient", "quotient", quotient),
    ("prove.evaluations", "evaluations", evaluations),
    ("prove.multiopen", "multiopen", multiopen),
)
