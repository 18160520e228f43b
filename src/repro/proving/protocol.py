"""Protocol structure shared by prover and verifier.

The Fiat-Shamir transform only works when both sides absorb identical
data in identical order, and the proof is only sound when both sides
mean the same constraints.  Everything of that kind that is not the
proof's own layout (:mod:`repro.proving.proof`) is defined once here
and used by both :mod:`repro.proving.prover` and
:mod:`repro.proving.verifier`:

- :func:`collect_queries` -- which column queries exist;
- :func:`init_transcript`, :func:`draw_challenges` -- what the
  transcript is bound to and which challenges open each round;
- :func:`opening_schedule` -- every evaluation the proof carries, the
  commitment it opens and the rotation -- and :func:`opening_point_sets`,
  the same grouped the way the opening argument folds it;
- :func:`combined_constraint` -- the constraint identity: which
  selector gates which term, in which ``y``-fold order, over scalar
  formulas (:func:`shuffle_fraction`, :func:`lookup_denominators` and
  friends, which the prover also builds its grand products, helper
  columns and running sums from).  The verifier evaluates it at ``x``,
  the prover on the extended coset; it is the same function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.plonkish.constraint_system import (
    Column,
    ColumnKind,
    ConstraintSystem,
    LookupArgument,
    helper_column_count,
)
from repro.proving.keygen import VerifyingKey
from repro.proving.proof import (
    PERMUTATION_Z_KEYS,
    LookupProofPart,
    ShuffleProofPart,
    permutation_z_keys,
)
from repro.transcript import Transcript


@dataclass
class QuerySet:
    """The ordered (column-index, rotation) queries per column kind."""

    advice: list[tuple[int, int]]
    fixed: list[tuple[int, int]]
    instance: list[tuple[int, int]]


def collect_queries(cs: ConstraintSystem) -> QuerySet:
    """Every (column, rotation) referenced by gates and lookups, plus
    rotation-0 queries for all equality columns (the permutation
    argument evaluates them at x)."""
    advice: set[tuple[int, int]] = set()
    fixed: set[tuple[int, int]] = set()
    instance: set[tuple[int, int]] = set()

    def note(column: Column, rotation: int) -> None:
        if column.kind is ColumnKind.ADVICE:
            advice.add((column.index, rotation))
        elif column.kind is ColumnKind.FIXED:
            fixed.add((column.index, rotation))
        else:
            instance.add((column.index, rotation))

    for gate in cs.gates:
        for constraint in gate.constraints:
            for column, rotation in constraint.queries():
                note(column, rotation)
    for lookup in cs.lookups:
        for expr in lookup.inputs + lookup.table:
            for column, rotation in expr.queries():
                note(column, rotation)
    for shuffle in cs.shuffles:
        for groups in (shuffle.input_groups, shuffle.table_groups):
            for group in groups:
                for expr in group:
                    for column, rotation in expr.queries():
                        note(column, rotation)
    for column in cs.equality_columns:
        note(column, 0)

    return QuerySet(
        advice=sorted(advice),
        fixed=sorted(fixed),
        instance=sorted(instance),
    )


def init_transcript(vk: VerifyingKey, instance: list[list[int]]) -> Transcript:
    """Create the protocol transcript and bind it to the verifying key
    and the public instance values."""
    tr = Transcript(b"poneglyphdb-proof-v1", vk.field)
    tr.absorb_scalar(b"k", vk.k)
    tr.absorb_scalar(b"usable", vk.usable_rows)
    tr.absorb_points(b"vk-fixed", vk.fixed_commitments)
    tr.absorb_points(b"vk-sigma", vk.sigma_commitments)
    for name in sorted(vk.system_commitments):
        tr.absorb_point(b"vk-system", vk.system_commitments[name])
    for column_values in instance:
        tr.absorb_scalars(b"instance", column_values)
    return tr


#: The challenges squeezed when each round opens, before its message
#: is absorbed (:meth:`repro.proving.proof.Proof.absorb_round`).
ROUND_CHALLENGES = {
    2: ("theta",),
    3: ("beta", "gamma"),
    4: ("y",),
    5: ("x",),
}


def draw_challenges(transcript: Transcript, number: int) -> dict[str, int]:
    """Squeeze the challenges that open round ``number``."""
    return {
        name: transcript.challenge_scalar(name.encode())
        for name in ROUND_CHALLENGES.get(number, ())
    }


def opening_schedule(
    vk: VerifyingKey, queries: QuerySet, n_h: int
) -> Iterator[tuple[tuple, tuple, int]]:
    """Every evaluation a proof carries is opened; this is the order.

    Yields ``(evaluation, commitment, rotation)``: the first two are
    paths -- ``(attribute, key)`` or ``(attribute, index, field)`` --
    into the proof (the commitment's into the verifying key for
    ``fixed`` / ``sigma`` / ``system``), and the evaluation is claimed
    at ``omega^rotation * x``.  ``n_h`` is the proof's quotient-chunk
    count.  :func:`opening_point_sets` keeps first-use order, so this
    order is part of the protocol.
    """
    for ci, rotation in queries.advice:
        yield ("advice_evals", (ci, rotation)), ("advice_commitments", ci), rotation
    for ci, rotation in queries.fixed:
        yield ("fixed_evals", (ci, rotation)), ("fixed_commitments", ci), rotation
    for gi in range(len(vk.sigma_commitments)):
        yield ("sigma_evals", gi), ("sigma_commitments", gi), 0
    for name in sorted(vk.system_commitments):
        yield ("system_evals", name), ("system_commitments", name), 0
    rotations = dict(zip(PERMUTATION_Z_KEYS, (0, 1, vk.usable_rows)))
    for j, keys in enumerate(permutation_z_keys(vk)):
        for key in keys:
            yield (
                ("permutation_z_evals", j, key),
                ("permutation_z_commitments", j),
                rotations[key],
            )
    for attr, part, count in (
        ("lookup_parts", LookupProofPart, len(vk.lookup_arguments)),
        ("shuffle_parts", ShuffleProofPart, len(vk.cs.shuffles)),
    ):
        for i in range(count):
            for evaluation, commitment, rotation in part.EVALS:
                yield (attr, i, evaluation), (attr, i, commitment), rotation
    for i in range(helper_column_count(vk.lookup_arguments)):
        yield ("lookup_helper_evals", i), ("lookup_helper_commitments", i), 0
    for i in range(n_h):
        yield ("h_evals", i), ("h_commitments", i), 0


def opening_point_sets(
    vk: VerifyingKey, queries: QuerySet, n_h: int
) -> list[tuple[tuple[int, ...], list[tuple[tuple, list[tuple]]]]]:
    """The opening schedule by *point set*: ``(rotations, members)``
    with one ``(commitment, [its evaluation per rotation])`` member per
    commitment opened at exactly those rotations of ``x`` (ascending).
    Sets and members come in first-use order of the schedule; the
    opening argument (:mod:`repro.proving.multiopen`) weights them by
    position, and the proof carries one ``multiopen_q_evals`` scalar
    per set."""
    opened: dict[tuple, dict[int, tuple]] = {}
    for evaluation, commitment, rotation in opening_schedule(vk, queries, n_h):
        opened.setdefault(commitment, {})[rotation] = evaluation
    sets: dict[tuple[int, ...], list] = {}
    for commitment, evaluations in opened.items():
        rotations = tuple(sorted(evaluations))
        sets.setdefault(rotations, []).append(
            (commitment, [evaluations[r] for r in rotations])
        )
    return list(sets.items())


def cell(root, path: tuple) -> tuple:
    """Resolve a schedule path to ``(container, key)`` with
    ``container[key]`` the point or scalar it names."""
    container = getattr(root, path[0])
    for key in path[1:-1]:
        container = container[key]
    if not isinstance(container, (list, dict)):
        container = vars(container)  # a lookup / shuffle part
    return container, path[-1]


def read(root, path: tuple):
    """The point or scalar a schedule path names."""
    container, key = cell(root, path)
    return container[key]


# -- the constraint identity ------------------------------------------------
#
# Formulas over the values of one row (or of the point ``x``).  The
# ``*_terms`` ones take the three system selectors first -- ``l0``:
# first row, ``active``: usable rows, ``last``: last usable row -- and
# return their terms in fold order; the ``*_fraction`` ones return the
# ``(numer, denom)`` step of a grand product.  The lookup argument is
# stated in DESIGN.md ("The lookup argument").

#: The system polynomials behind the three selectors, in that order.
SYSTEM_SELECTORS = ("l0", "l_active", "l_last")


def compress(values, challenge: int, p: int) -> int:
    """Horner-fold ``values`` with ``challenge`` (a tuple into one
    field element with ``theta``)."""
    acc = 0
    for value in values:
        acc = (acc * challenge + value) % p
    return acc


def gate_terms(l0, active, last, value, p):
    """A gate constraint, gated to the active rows so advice cells
    randomized in the blinding region never violate it."""
    return (active * value % p,)


def permutation_fraction(columns, beta, gamma, p):
    """One row's step of a permutation chunk's grand product (paper
    Eq. 2/3, chunked).  ``columns`` holds, per equality column,
    ``(value, identity position, sigma position)``."""
    numer = denom = 1
    for value, identity, sigma in columns:
        numer = numer * ((value + beta * identity + gamma) % p) % p
        denom = denom * ((value + beta * sigma + gamma) % p) % p
    return numer, denom


def lookup_helper_terms(l0, active, last, h, denominators, p):
    """A helper column is determined by its group's inputs: ``h =
    sum_i 1 / d_i`` over the ``d_i = beta + f_i``, cleared of
    denominators -- ``h * prod_i d_i = sum_i prod_{j != i} d_j``."""
    product, partial = 1, 0
    for d in denominators:
        partial = (partial * d + product) % p
        product = product * d % p
    return (active * (h * product - partial) % p,)


def lookup_sum_terms(l0, active, last, phi, phi_next, m, helpers, table, p):
    """A lookup argument's running sum starts at 0, steps on every
    active row by that row's helpers minus ``m / (beta + t)`` (cleared
    of the denominator) and is back at 0 after the last one."""
    step = (phi_next - phi - sum(helpers)) * table + m
    return (l0 * phi % p, active * step % p, last * phi_next % p)


def shuffle_fraction(inputs, tables, gamma, p):
    """One row's step of a shuffle grand product (paper Eq. 5,
    generalized to tuple groups): compressed input groups over
    compressed table groups."""
    numer = denom = 1
    for value in inputs:
        numer = numer * ((value + gamma) % p) % p
    for value in tables:
        denom = denom * ((value + gamma) % p) % p
    return numer, denom


def compress_rows(vectors, theta: int, p: int) -> list[int]:
    """:func:`compress` row by row: one tuple stream from the value
    vectors of its expressions."""
    if len(vectors) == 1:  # a one-element tuple compresses to itself
        return vectors[0]
    return [compress(row, theta, p) for row in zip(*vectors)]


def lookup_denominators(
    vk: VerifyingKey, argument: LookupArgument, expression, challenges
) -> tuple[list[list[list[int]]], list[int]]:
    """The denominators of one lookup argument's log-derivative sum,
    as vectors over the points ``expression`` evaluates at: ``beta +
    f_i`` for every input tuple ``f_i`` (grouped like
    ``argument.groups``) and ``beta + t`` for the table tuple, tuples
    compressed with ``theta``.  :func:`combined_constraint` folds them
    into the identity; the prover inverts them over the rows of the
    domain to build the helper columns and the running sum."""
    p, theta, beta = vk.field.p, challenges["theta"], challenges["beta"]

    def shifted(exprs):
        values = compress_rows([expression(e) for e in exprs], theta, p)
        return [(beta + value) % p for value in values]

    return (
        [[shifted(lookup.inputs) for lookup in group] for group in argument.groups],
        shifted(argument.table),
    )


def grand_product_fractions(vk, positions, expression, opened, challenges):
    """Every grand-product argument in protocol order -- permutation
    chunks (paper Eq. 2/3, chunked), then shuffles (Eq. 5) -- as
    ``(evaluation section, index, fractions)`` with one ``(numer,
    denom)`` step per point of ``positions``.  The arguments are those
    of :func:`combined_constraint`; the prover also calls this over the
    rows of the domain to build each ``Z``."""
    p = vk.field.p
    theta, beta, gamma = (challenges[c] for c in ("theta", "beta", "gamma"))

    def compressed(exprs):
        return compress_rows([expression(e) for e in exprs], theta, p)

    # Equality column i sits on the coset delta^i * X of the identity
    # permutation; sigma_i says where its cells are copied from.
    index = {col: i for i, col in enumerate(vk.cs.equality_columns)}
    for j, chunk in enumerate(vk.permutation_chunks):
        columns = []
        for col in chunk:
            shift = pow(vk.delta, index[col], p)
            columns.append(
                zip(
                    expression(col.cur()),
                    [shift * x % p for x in positions],
                    opened(("sigma_evals", index[col])),
                )
            )
        yield "permutation_z_evals", j, [
            permutation_fraction(row, beta, gamma, p) for row in zip(*columns)
        ]
    for si, shuffle in enumerate(vk.cs.shuffles):
        rows = zip(
            zip(*map(compressed, shuffle.input_groups)),
            zip(*map(compressed, shuffle.table_groups)),
        )
        yield "shuffle_parts", si, [
            shuffle_fraction(inputs, tables, gamma, p) for inputs, tables in rows
        ]


def combined_constraint(
    vk: VerifyingKey,
    selectors,
    positions: list[int],
    expression,
    opened,
    challenges: dict[str, int],
) -> list[int]:
    """The whole constraint identity, folded with ``y``, at every point
    of ``positions`` at once -- the extended coset for the prover, the
    single point ``x`` for the verifier.  Every argument is a vector
    over those points:

    - ``selectors``: the ``l0``, ``l_active`` and ``l_last`` values;
    - ``expression(e)``: the values of a gate / lookup expression;
    - ``opened(path)``: the values behind the evaluation the proof
      carries at ``path`` (:func:`opening_schedule`), i.e. of its
      polynomial at that evaluation's rotation.
    """
    p, y = vk.field.p, challenges["y"]
    ones = [1] * len(positions)
    combined = [0] * len(positions)

    def fold(formula, columns) -> None:
        for t, row in enumerate(zip(*selectors, *columns)):
            acc = combined[t]
            for term in formula(*row, p):
                acc = (acc * y + term) % p
            combined[t] = acc

    for gate in vk.cs.gates:
        for constraint in gate.constraints:
            fold(gate_terms, [expression(constraint)])

    last_chunk = len(vk.permutation_chunks) - 1
    for attr, i, fractions in grand_product_fractions(
        vk, positions, expression, opened, challenges
    ):
        # Z starts at 1 -- a permutation chunk after the first where the
        # previous one ended (its Z at omega^usable * X) --, steps by
        # its fraction on every active row and ends at 1; of the
        # permutation chunks only the last does.
        if attr == "permutation_z_evals":
            z, z_next = opened((attr, i, "x")), opened((attr, i, "wx"))
            start = opened((attr, i - 1, "chain")) if i else ones
        else:
            z, z_next = opened((attr, i, "z_x")), opened((attr, i, "z_wx"))
            start = ones
        closes = attr != "permutation_z_evals" or i == last_chunk
        rows = zip(*selectors, z, z_next, start, fractions)
        for t, (l0, active, last, z_t, z_next_t, start_t, (numer, denom)) in enumerate(rows):
            acc = (combined[t] * y + l0 * (z_t - start_t)) % p
            acc = (acc * y + active * (z_next_t * denom - z_t * numer)) % p
            if closes:
                acc = (acc * y + last * (z_next_t - 1)) % p
            combined[t] = acc

    for i, argument in enumerate(vk.lookup_arguments):
        groups, table = lookup_denominators(vk, argument, expression, challenges)
        helpers = [
            opened(("lookup_helper_evals", argument.first_helper + g))
            for g in range(len(groups))
        ]
        for helper, denominators in zip(helpers, groups):
            fold(lookup_helper_terms, [helper, zip(*denominators)])
        phi, phi_next, m = (
            opened(("lookup_parts", i, name)) for name in ("phi_x", "phi_wx", "m_x")
        )
        fold(lookup_sum_terms, [phi, phi_next, m, zip(*helpers), table])
    return combined
