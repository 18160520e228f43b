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
  :func:`quotient_paths`, the proof's polynomials the identity reads;
- :func:`combined_constraint` -- the constraint identity: which
  selector gates which term, in which ``y``-fold order, over vector
  formulas (:func:`shuffle_fraction`, :func:`lookup_denominators` and
  friends, which the prover also builds its grand products, helper
  columns and running sums from).  The verifier evaluates it at ``x``,
  the prover on the extended coset; it is the same function, and the
  expressions in it are the verifying key's compiled program
  (:mod:`repro.proving.evaluation`) on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.algebra.field import SCALAR_FIELD
from repro.plonkish.constraint_system import (
    ColumnKind,
    LookupArgument,
    helper_column_count,
)
from repro.proving.evaluation import gate_expressions
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


def collect_queries(vk: VerifyingKey) -> QuerySet:
    """Every (column, rotation) the constraint identity reads -- the
    leaves of the verifying key's program, among them a rotation-0
    query per equality column (the permutation argument evaluates them
    at x)."""
    found: dict[ColumnKind, list] = {kind: [] for kind in ColumnKind}
    for column, rotation in vk.program.leaves():
        found[column.kind].append((column.index, rotation))
    return QuerySet(
        advice=sorted(found[ColumnKind.ADVICE]),
        fixed=sorted(found[ColumnKind.FIXED]),
        instance=sorted(found[ColumnKind.INSTANCE]),
    )


def init_transcript(vk: VerifyingKey, instance: list[list[int]]) -> Transcript:
    """Create the protocol transcript and bind it to the verifying key
    and the public instance values.  The key's fingerprint goes first:
    it covers the gates, lookups, shuffles and copies, which no
    commitment below does."""
    tr = Transcript(b"poneglyphdb-proof-v1")
    tr.absorb_bytes(b"vk", bytes.fromhex(vk.fingerprint))
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


#: The schedule's commitment paths into the verifying key: polynomials
#: of the circuit, not of a proof.
KEY_COMMITMENTS = ("fixed_commitments", "sigma_commitments", "system_commitments")


def quotient_paths(vk: VerifyingKey, queries: QuerySet) -> list[tuple]:
    """The polynomials of a proof that the constraint identity reads, by
    commitment path: every one the schedule opens but the key's and the
    quotient's own pieces, then each instance column a query reads (the
    verifier computes those, so they are never opened).  The prover
    evaluates exactly these on each part of the quotient's coset; the
    key's come with the key."""
    opened = dict.fromkeys(
        commitment
        for _, commitment, _ in opening_schedule(vk, queries, 0)
        if commitment[0] not in KEY_COMMITMENTS
    )
    instance = dict.fromkeys(("instance", ci) for ci, _ in queries.instance)
    return list(opened) + list(instance)


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
# Formulas over vectors: the values at every point at once -- the rows
# of the domain, the extended coset, or the single point ``x``.  The
# ``*_terms`` ones take the three system selectors first -- ``l0``:
# first row, ``active``: usable rows, ``last``: last usable row -- and
# return their terms in fold order, unreduced; the ``*_fraction`` ones
# return the numerator and denominator of a grand product's step.  The
# lookup argument is stated in DESIGN.md ("The lookup argument").

#: The system polynomials behind the three selectors, in that order.
SYSTEM_SELECTORS = ("l0", "l_active", "l_last")


def compress(values, challenge: int, p: int) -> int:
    """Horner-fold ``values`` with ``challenge`` (a tuple into one
    field element with ``theta``)."""
    acc = 0
    for value in values:
        acc = (acc * challenge + value) % p
    return acc


def compress_rows(exprs, expression, theta: int, p: int) -> list[int]:
    """:func:`compress` point by point: one tuple stream from the values
    of its expressions, each read once, in order.  Summed as ``sum_i
    theta^(n-1-i) * v_i`` with one reduction per point -- the same field
    elements."""
    if len(exprs) == 1:  # a one-element tuple compresses to itself
        return expression(exprs[0])
    weights = [1]
    for _ in exprs[1:]:
        weights.append(weights[-1] * theta % p)
    acc = None
    for expr, weight in zip(exprs, reversed(weights)):
        values = expression(expr)
        if acc is None:
            acc = [weight * v for v in values]
        else:
            acc = [s + weight * v for s, v in zip(acc, values)]
    return [s % p for s in acc]


def _shifted_product(vectors, gamma: int, p: int) -> list[int]:
    """``prod_i (vectors[i] + gamma)`` point by point."""
    acc = [(v + gamma) % p for v in vectors[0]]
    for vector in vectors[1:]:
        acc = [a * (v + gamma) % p for a, v in zip(acc, vector)]
    return acc


def permutation_fraction(columns, positions, beta, gamma, p):
    """A permutation chunk's grand-product step (paper Eq. 2/3,
    chunked).  ``columns`` holds, per equality column, ``(values,
    shift, sigma)``: its identity position at a point ``X`` is ``shift
    * X``, its sigma position ``sigma``."""
    identities, sigmas = [], []
    for values, shift, sigma in columns:
        scale = beta * shift % p
        identities.append([v + scale * x for v, x in zip(values, positions)])
        sigmas.append([v + beta * s for v, s in zip(values, sigma)])
    return _shifted_product(identities, gamma, p), _shifted_product(sigmas, gamma, p)


def lookup_helper_terms(l0, active, last, h, denominators, p):
    """A helper column is determined by its group's inputs: ``h =
    sum_i 1 / d_i`` over the ``d_i = beta + f_i``, cleared of
    denominators -- ``h * prod_i d_i = sum_i prod_{j != i} d_j``."""
    product, partial = denominators[0], [1] * len(h)
    for d in denominators[1:]:
        partial = [(s * e + q) % p for s, e, q in zip(partial, d, product)]
        product = [q * e % p for q, e in zip(product, d)]
    return ([a * (x * q - s) for a, x, q, s in zip(active, h, product, partial)],)


def lookup_sum_terms(l0, active, last, phi, phi_next, m, helpers, table, p):
    """A lookup argument's running sum starts at 0, steps on every
    active row by that row's helpers minus ``m / (beta + t)`` (cleared
    of the denominator) and is back at 0 after the last one."""
    helper_sum = [sum(point) for point in zip(*helpers)]
    return (
        [a * f for a, f in zip(l0, phi)],
        [
            a * ((f_next - f - s) * t + mult)
            for a, f, f_next, s, t, mult in zip(
                active, phi, phi_next, helper_sum, table, m
            )
        ],
        [a * f_next for a, f_next in zip(last, phi_next)],
    )


def shuffle_fraction(inputs, tables, gamma, p):
    """A shuffle grand product's step (paper Eq. 5, generalized to
    tuple groups): compressed input groups over compressed table
    groups."""
    return _shifted_product(inputs, gamma, p), _shifted_product(tables, gamma, p)


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
    p, theta, beta = SCALAR_FIELD.p, challenges["theta"], challenges["beta"]

    def shifted(exprs):
        values = compress_rows(exprs, expression, theta, p)
        return [(beta + value) % p for value in values]

    return (
        [[shifted(lookup.inputs) for lookup in group] for group in argument.groups],
        shifted(argument.table),
    )


def grand_product_fractions(vk, positions, expression, opened, challenges):
    """Every grand-product argument in protocol order -- permutation
    chunks (paper Eq. 2/3, chunked), then shuffles (Eq. 5) -- as
    ``(evaluation section, index, numerators, denominators)`` with one
    step per point of ``positions``.  The arguments are those of
    :func:`combined_constraint`; the prover also calls this over the
    rows of the domain to build each ``Z``."""
    p = SCALAR_FIELD.p
    theta, beta, gamma = (challenges[c] for c in ("theta", "beta", "gamma"))

    def compressed(exprs):
        return compress_rows(exprs, expression, theta, p)

    # Equality column i sits on the coset delta^i * X of the identity
    # permutation; sigma_i says where its cells are copied from.
    index = {col: i for i, col in enumerate(vk.cs.equality_columns)}
    for j, chunk in enumerate(vk.permutation_chunks):
        columns = [
            (
                expression(col.cur()),
                pow(vk.delta, index[col], p),
                opened(("sigma_evals", index[col])),
            )
            for col in chunk
        ]
        yield "permutation_z_evals", j, *permutation_fraction(
            columns, positions, beta, gamma, p
        )
    for si, shuffle in enumerate(vk.cs.shuffles):
        yield "shuffle_parts", si, *shuffle_fraction(
            [compressed(group) for group in shuffle.input_groups],
            [compressed(group) for group in shuffle.table_groups],
            gamma,
            p,
        )


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
    - ``expression(e)``: the values of a gate / lookup expression (the
      verifying key's :class:`~repro.proving.evaluation.Program`, run
      over those points);
    - ``opened(path)``: the values behind the evaluation the proof
      carries at ``path`` (:func:`opening_schedule`), i.e. of its
      polynomial at that evaluation's rotation.
    """
    p, y = SCALAR_FIELD.p, challenges["y"]
    l0, active, last = selectors
    ones = [1] * len(positions)

    # The gates come first, each gated to the active rows (so advice
    # cells randomized in the blinding region never violate one):
    # folding active * c_j term by term is active times the y-fold of
    # the c_j, one product in all instead of one per constraint.
    combined = [0] * len(positions)
    constraints = gate_expressions(vk.cs)
    if constraints:
        gates = compress_rows(constraints, expression, y, p)
        combined = [a * g % p for a, g in zip(active, gates)]

    def fold(*terms) -> None:
        nonlocal combined
        for term in terms:
            combined = [(c * y + t) % p for c, t in zip(combined, term)]

    last_chunk = len(vk.permutation_chunks) - 1
    for attr, i, numer, denom in grand_product_fractions(
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
        fold(
            [a * (u - s) for a, u, s in zip(l0, z, start)],
            [
                a * (u_next * d - u * nm)
                for a, u, u_next, nm, d in zip(active, z, z_next, numer, denom)
            ],
        )
        if attr != "permutation_z_evals" or i == last_chunk:
            fold([a * (u_next - 1) for a, u_next in zip(last, z_next)])

    for i, argument in enumerate(vk.lookup_arguments):
        groups, table = lookup_denominators(vk, argument, expression, challenges)
        helpers = [
            opened(("lookup_helper_evals", argument.first_helper + g))
            for g in range(len(groups))
        ]
        for helper, denominators in zip(helpers, groups):
            fold(*lookup_helper_terms(l0, active, last, helper, denominators, p))
        phi, phi_next, m = (
            opened(("lookup_parts", i, name)) for name in ("phi_x", "phi_wx", "m_x")
        )
        fold(*lookup_sum_terms(l0, active, last, phi, phi_next, m, helpers, table, p))
    return combined
