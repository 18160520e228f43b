"""Key generation (paper workflow phase 3).

From the circuit shape and the public parameters we derive:

- the **proving key**: the coefficients of every fixed polynomial, of
  the permutation sigma polynomials encoding all copy constraints, and
  of the system row-selectors (l0 / l_last / l_active) that gate the
  permutation and lookup arguments away from the blinding rows, and
  the values of all of them on each part of the quotient's coset;
- the **verifying key**: binding commitments to all of the above.

As in halo2, the verifying key has a builder of its own,
:func:`keygen_vk`: commitments straight from the column values, no
transform.  Both keys are built whole from the circuit *and* its fixed
values, and never changed afterwards, so threads can share them.

Key generation is deterministic: any party can regenerate the keys from
the public circuit description, so distributing the verifying key needs
no trust.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field as dc_field
from typing import Sequence

from repro import telemetry
from repro.algebra.domain import EvaluationDomain
from repro.algebra.field import SCALAR_FIELD
from repro.commit.ipa import commit_lagrange_many
from repro.commit.params import PublicParams
from repro.ecc.curve import Point
from repro.hashing import blake2b
from repro.plonkish.assignment import ZK_ROWS
from repro.plonkish.constraint_system import (
    Column,
    ConstraintSystem,
    LookupArgument,
)
from repro.proving.evaluation import (
    Program,
    argument_expressions,
    gate_expressions,
)

logger = logging.getLogger("repro.proving.keygen")

#: Fixed column values, one row-indexed list per fixed column.
Columns = Sequence[Sequence[int]]

#: Columns covered by one permutation grand-product polynomial.  Keeping
#: chunks small bounds the constraint degree at ``chunk + 2`` (the
#: paper's "low-order polynomial constraints" design rule).
PERMUTATION_CHUNK = 3


@dataclass
class PolyData:
    """One committed polynomial as the prover opens it: the key's
    fixed / sigma / system polynomials, and -- with their ``blind`` --
    the ones each proof commits."""

    coeffs: list[int]
    commitment: Point | None = None
    blind: int = 0


@dataclass(frozen=True)
class VerifyingKey:
    params: PublicParams
    cs: ConstraintSystem
    k: int
    usable_rows: int
    extended_k: int
    fixed_commitments: list[Point]
    sigma_commitments: list[Point]
    system_commitments: dict[str, Point]
    permutation_chunks: list[list[Column]]
    #: the lookups, grouped by table and into helper groups
    lookup_arguments: list[LookupArgument]
    delta: int
    #: every expression the constraint identity reads, compiled once
    #: (gates first, in fold order)
    program: Program
    #: :func:`keygen_fingerprint` of the parameters, the circuit shape
    #: (gates, lookups, shuffles, copies), the fixed values and ``k``;
    #: the proof transcript absorbs it first
    fingerprint: str

    @property
    def n_rows(self) -> int:
        return 1 << self.k


@dataclass(frozen=True)
class ProvingKey:
    vk: VerifyingKey
    domain: EvaluationDomain
    fixed: list[PolyData]
    sigmas: list[PolyData]
    system: dict[str, PolyData]
    #: sigma values per equality column (row-indexed)
    sigma_values: list[list[int]]
    #: The quotient's coset in parts (:func:`coset_part_shifts`): part
    #: ``j`` is ``part_shifts[j] * H``, and ``coset_parts[j]`` maps each
    #: key polynomial's path (``("fixed_commitments", i)``,
    #: ``("sigma_commitments", i)``, ``("system_commitments", name)``)
    #: to its n values there.
    part_shifts: list[int]
    coset_parts: list[dict[tuple, list[int]]] = dc_field(repr=False)

    def polys(self) -> dict[tuple, PolyData]:
        """Every key polynomial by its path."""
        return {
            **{("system_commitments", name): p for name, p in self.system.items()},
            **{("sigma_commitments", i): p for i, p in enumerate(self.sigmas)},
            **{("fixed_commitments", i): p for i, p in enumerate(self.fixed)},
        }


#: The system row-selectors, in key order.
_SYSTEM_NAMES = ("l0", "l_last", "l_active")


def coset_part_shifts(k: int, extended_k: int) -> list[int]:
    """The quotient's coset ``zeta * <omega_ext>`` of ``2^extended_k``
    points as ``R = 2^(extended_k - k)`` disjoint cosets of the row
    domain ``H``: part ``j`` is ``zeta * omega_ext^j * H``, since
    ``omega_ext^R`` generates ``H``.  ``zeta`` is the field's
    multiplicative generator, so no part meets ``H``."""
    p = SCALAR_FIELD.p
    omega_ext = SCALAR_FIELD.root_of_unity_of_order(1 << extended_k)
    shifts = [SCALAR_FIELD.multiplicative_generator]
    for _ in range(1, 1 << (extended_k - k)):
        shifts.append(shifts[-1] * omega_ext % p)
    return shifts


def _system_selectors(n: int, usable: int) -> list[list[int]]:
    """The fixed row-indicator columns used by the synthesized
    permutation/lookup constraints, in :data:`_SYSTEM_NAMES` order."""
    l0 = [0] * n
    l0[0] = 1
    l_last = [0] * n
    l_last[usable - 1] = 1
    l_active = [0] * n
    for i in range(usable):
        l_active[i] = 1
    return [l0, l_last, l_active]


def build_permutation_columns(
    cs: ConstraintSystem, n: int, usable: int, delta: int
) -> list[list[int]]:
    """Compute the sigma column values from the copy constraints.

    Positions ``(column, row)`` over all equality-enabled columns are
    joined into cycles by union-find; sigma maps each position to the
    next one in its cycle.  Position ``(c, i)`` is encoded as the field
    element ``delta^c * omega^i``, giving disjoint cosets per column.
    """
    columns = cs.equality_columns
    col_of = {col: idx for idx, col in enumerate(columns)}

    parent: dict[tuple[int, int], tuple[int, int]] = {}

    def find(pos: tuple[int, int]) -> tuple[int, int]:
        root = pos
        while parent.get(root, root) != root:
            root = parent[root]
        # Path compression.
        while parent.get(pos, pos) != root:
            parent[pos], pos = root, parent[pos]
        return root

    def union(a: tuple[int, int], b: tuple[int, int]) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for copy in cs.copies:
        if copy.left_row >= usable or copy.right_row >= usable:
            raise ValueError("copy constraints may not touch blinding rows")
        union(
            (col_of[copy.left_col], copy.left_row),
            (col_of[copy.right_col], copy.right_row),
        )

    # Gather cycles.
    cycles: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for c in range(len(columns)):
        for i in range(usable):
            cycles.setdefault(find((c, i)), []).append((c, i))

    # sigma: next position in cycle (identity for singleton cycles).
    sigma_map: dict[tuple[int, int], tuple[int, int]] = {}
    for members in cycles.values():
        for idx, pos in enumerate(members):
            sigma_map[pos] = members[(idx + 1) % len(members)]

    p = SCALAR_FIELD.p
    omega = SCALAR_FIELD.root_of_unity_of_order(n)
    omegas = [1] * n
    for i in range(1, n):
        omegas[i] = omegas[i - 1] * omega % p
    deltas = [1] * max(1, len(columns))
    for c in range(1, len(columns)):
        deltas[c] = deltas[c - 1] * delta % p

    sigma_values = []
    for c in range(len(columns)):
        col_vals = [0] * n
        for i in range(n):
            if i < usable:
                tc, ti = sigma_map[(c, i)]
            else:
                tc, ti = c, i  # identity on blinding rows (unconstrained)
            col_vals[i] = deltas[tc] * omegas[ti] % p
        sigma_values.append(col_vals)
    return sigma_values


def _key_columns(
    params: PublicParams, cs: ConstraintSystem, k: int, fixed: Columns
) -> tuple[list[list[int]], list[Point], VerifyingKey]:
    """Every key column's values and commitment, in key order -- the
    system selectors (:data:`_SYSTEM_NAMES` order), the sigmas, the
    fixed columns -- and the verifying key made of those commitments.
    Both key builders start here, so they cannot disagree."""
    n = 1 << k
    if n > params.n:
        raise ValueError(f"circuit rows 2^{k} exceed params capacity 2^{params.k}")
    usable = n - ZK_ROWS
    if usable <= 1:
        raise ValueError("circuit too small for blinding rows")
    fit_params = params.truncated(k) if params.k > k else params
    delta = SCALAR_FIELD.multiplicative_generator
    sigmas = build_permutation_columns(cs, n, usable, delta)
    values = _system_selectors(n, usable) + sigmas + list(fixed)
    # Lagrange-basis commitments come straight from the values.
    commitments = commit_lagrange_many(fit_params, [(v, 0) for v in values])
    n_system, n_key = len(_SYSTEM_NAMES), len(values) - len(fixed)
    equality = cs.equality_columns
    arguments = cs.lookup_arguments(PERMUTATION_CHUNK)
    vk = VerifyingKey(
        params=fit_params,
        cs=cs,
        k=k,
        usable_rows=usable,
        # The quotient h, not the constraint it divides, is what the
        # coset evaluations must determine: fewer than (degree - 1) * n
        # coefficients at constraint degree <= degree * (n - 1).
        extended_k=k + cs.quotient_extension(PERMUTATION_CHUNK),
        fixed_commitments=commitments[n_key:],
        sigma_commitments=commitments[n_system:n_key],
        system_commitments=dict(zip(_SYSTEM_NAMES, commitments)),
        permutation_chunks=[
            equality[i : i + PERMUTATION_CHUNK]
            for i in range(0, len(equality), PERMUTATION_CHUNK)
        ],
        lookup_arguments=arguments,
        delta=delta,
        program=Program(
            gate_expressions(cs) + argument_expressions(cs, arguments),
            SCALAR_FIELD.p,
        ),
        fingerprint=keygen_fingerprint(fit_params, cs, k, fixed),
    )
    return values, commitments, vk


def keygen_vk(
    params: PublicParams, cs: ConstraintSystem, k: int, fixed: Columns
) -> VerifyingKey:
    """The verifying key alone: commitments only, no transform.  Equal
    to ``keygen(...).vk`` for the same arguments."""
    with telemetry.span("keygen_vk", k=k):
        return _key_columns(params, cs, k, fixed)[2]


def keygen(
    params: PublicParams, cs: ConstraintSystem, k: int, fixed: Columns
) -> ProvingKey:
    """The proving key of a circuit of ``2^k`` rows whose fixed columns
    hold ``fixed``, complete with its verifying key.

    Every key polynomial -- system selectors, sigmas, fixed columns --
    goes through the transforms and commitments as one batch: one
    inverse FFT to coefficients, then one n-point coset FFT per part of
    the quotient's coset."""
    with telemetry.span("keygen", k=k):
        values, commitments, vk = _key_columns(params, cs, k, fixed)
        domain = EvaluationDomain(SCALAR_FIELD, k)
        coeffs = domain.ifft_many(values)
        polys = [PolyData(*poly) for poly in zip(coeffs, commitments)]
        n_system, n_key = len(_SYSTEM_NAMES), len(values) - len(fixed)
        pk = ProvingKey(
            vk=vk,
            domain=domain,
            fixed=polys[n_key:],
            sigmas=polys[n_system:n_key],
            system=dict(zip(_SYSTEM_NAMES, polys)),
            sigma_values=values[n_system:n_key],
            part_shifts=coset_part_shifts(k, vk.extended_k),
            coset_parts=[],
        )
        by_path = pk.polys()
        coeffs = [poly.coeffs for poly in by_path.values()]
        for shift in pk.part_shifts:
            pk.coset_parts.append(
                dict(zip(by_path, domain.coset_fft_many(coeffs, shift)))
            )
    logger.debug("keygen: k=%d extended_k=%d", k, vk.extended_k)
    return pk


#: Versions what a key built from the same inputs holds (bumped when the
#: key's layout or commitment basis changed).  It feeds
#: :attr:`VerifyingKey.fingerprint` and through it every transcript, so
#: changing it changes every proof.
_FINGERPRINT_TAG = b"lagrange-generators-v6|"


def keygen_fingerprint(
    params: PublicParams, cs: ConstraintSystem, k: int, fixed: Columns
) -> str:
    """A stable content hash of everything :func:`keygen` depends on.

    Keys the provers' in-memory key memo: any change to the circuit
    shape, its fixed values, the parameter set or the row
    count lands in a different entry.  Over the parameters the key is
    built on, it is also :attr:`VerifyingKey.fingerprint`, which binds
    the proof transcript to the whole statement.
    """
    h = blake2b(digest_size=20)
    h.update(_FINGERPRINT_TAG)
    h.update(f"{params.fingerprint()}|{SCALAR_FIELD.p}|{k}|".encode())
    h.update(cs.fingerprint().encode())
    for column in fixed:
        h.update(b"|" + ",".join(map(str, column)).encode())
    return h.hexdigest()


#: The most keys one memo holds (a prover's proving keys, a verifier's
#: verifying keys), so a hostile query stream cannot grow it unbounded.
KEY_MEMO_MAX = 32


def remember(memo: dict, key: object, value: object) -> None:
    """Store ``value`` under ``key``, dropping the oldest entries past
    :data:`KEY_MEMO_MAX`.  Thread-safe: ``list(memo)`` and a defaulted
    ``pop`` are each atomic, so racing evictions drop the same keys."""
    memo[key] = value
    for stale in list(memo)[:-KEY_MEMO_MAX]:
        memo.pop(stale, None)
