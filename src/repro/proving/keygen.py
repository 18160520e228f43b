"""Key generation (paper workflow phase 3).

From the circuit shape and the public parameters we derive:

- the **proving key**: coefficient and extended-coset-evaluation forms
  of every fixed polynomial, the permutation sigma polynomials encoding
  all copy constraints, and the system row-selectors (l0 / l_last /
  l_active) that gate the permutation and lookup arguments away from
  the blinding rows;
- the **verifying key**: binding commitments to all of the above.

Key generation is deterministic: any party can regenerate the keys from
the public circuit description, so distributing the verifying key needs
no trust.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field as dc_field
from typing import TYPE_CHECKING

from repro import telemetry
from repro.algebra.domain import EvaluationDomain
from repro.algebra.field import Field
from repro.commit.ipa import commit_lagrange_many
from repro.commit.params import PublicParams
from repro.ecc.curve import Point
from repro.plonkish.assignment import ZK_ROWS, Assignment
from repro.plonkish.constraint_system import (
    Column,
    ConstraintSystem,
    LookupArgument,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.cache import ArtifactCache

logger = logging.getLogger("repro.proving.keygen")

#: Columns covered by one permutation grand-product polynomial.  Keeping
#: chunks small bounds the constraint degree at ``chunk + 2`` (the
#: paper's "low-order polynomial constraints" design rule).
PERMUTATION_CHUNK = 3


@dataclass
class PolyData:
    """One committed polynomial in the forms the prover needs: the key's
    fixed / sigma / system polynomials, and -- with their ``blind`` --
    the ones each proof commits (whose extended evaluations the
    quotient round fills in on first use)."""

    coeffs: list[int]
    extended_evals: list[int] | None = dc_field(default=None, repr=False)
    commitment: Point | None = None
    blind: int = 0


@dataclass
class VerifyingKey:
    params: PublicParams
    field: Field
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

    @property
    def n_rows(self) -> int:
        return 1 << self.k


@dataclass
class ProvingKey:
    vk: VerifyingKey
    domain: EvaluationDomain
    extended_domain: EvaluationDomain
    coset_shift: int
    fixed: list[PolyData]
    sigmas: list[PolyData]
    system: dict[str, PolyData]
    #: raw fixed column values (needed to evaluate lookup tables rowwise)
    fixed_values: list[list[int]]
    #: sigma values per equality column (row-indexed)
    sigma_values: list[list[int]]


def _system_selectors(n: int, usable: int) -> dict[str, list[int]]:
    """The fixed row-indicator columns used by the synthesized
    permutation/lookup constraints."""
    l0 = [0] * n
    l0[0] = 1
    l_last = [0] * n
    l_last[usable - 1] = 1
    l_active = [0] * n
    for i in range(usable):
        l_active[i] = 1
    return {"l0": l0, "l_last": l_last, "l_active": l_active}


def build_permutation_columns(
    cs: ConstraintSystem, field: Field, n: int, usable: int, delta: int
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

    p = field.p
    omega = field.root_of_unity_of_order(n)
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


def _chunk_columns(columns: list[Column], chunk: int) -> list[list[Column]]:
    return [columns[i : i + chunk] for i in range(0, len(columns), chunk)] or []


def keygen(
    params: PublicParams,
    cs: ConstraintSystem,
    field: Field,
    k: int,
) -> ProvingKey:
    """Derive proving and verifying keys for a circuit of ``2^k`` rows."""
    with telemetry.span("keygen", k=k):
        pk = _keygen(params, cs, field, k)
    logger.debug(
        "keygen: k=%d degree=%d extended_k=%d sigmas=%d",
        k,
        cs.required_degree(PERMUTATION_CHUNK),
        pk.vk.extended_k,
        len(pk.sigmas),
    )
    return pk


def _keygen(
    params: PublicParams,
    cs: ConstraintSystem,
    field: Field,
    k: int,
) -> ProvingKey:
    n = 1 << k
    if n > params.n:
        raise ValueError(f"circuit rows 2^{k} exceed params capacity 2^{params.k}")
    usable = n - ZK_ROWS
    if usable <= 1:
        raise ValueError("circuit too small for blinding rows")

    # The quotient h, not the constraint it divides, is what the coset
    # evaluations must determine: fewer than (degree - 1) * n
    # coefficients at constraint degree <= degree * (n - 1).
    extended_k = k + cs.quotient_extension(PERMUTATION_CHUNK)
    domain = EvaluationDomain(field, k)
    extended_domain = EvaluationDomain(field, extended_k)
    coset_shift = field.multiplicative_generator

    fit_params = params.truncated(k) if params.k > k else params
    delta = field.multiplicative_generator

    system_values = _system_selectors(n, usable)
    sigma_values = build_permutation_columns(cs, field, n, usable, delta)

    # All key polynomials go through the transforms and commitments as
    # one batch so the worker pool (when configured) sees real fan-out.
    system_names = list(system_values)
    all_values = [system_values[name] for name in system_names] + sigma_values
    all_coeffs = domain.ifft_many(all_values)
    all_ext = extended_domain.coset_fft_many(all_coeffs, coset_shift)
    all_commits = commit_lagrange_many(
        fit_params, [(values, 0) for values in all_values]
    )
    polys = [
        PolyData(coeffs=coeffs, extended_evals=ext, commitment=commitment)
        for coeffs, ext, commitment in zip(all_coeffs, all_ext, all_commits)
    ]
    system = dict(zip(system_names, polys[: len(system_names)]))
    sigmas = polys[len(system_names) :]

    vk = VerifyingKey(
        params=fit_params,
        field=field,
        cs=cs,
        k=k,
        usable_rows=usable,
        extended_k=extended_k,
        fixed_commitments=[],  # filled after fixed assignment is known
        sigma_commitments=[pd.commitment for pd in sigmas],
        system_commitments={name: pd.commitment for name, pd in system.items()},
        permutation_chunks=_chunk_columns(cs.equality_columns, PERMUTATION_CHUNK),
        lookup_arguments=cs.lookup_arguments(PERMUTATION_CHUNK),
        delta=delta,
    )
    return ProvingKey(
        vk=vk,
        domain=domain,
        extended_domain=extended_domain,
        coset_shift=coset_shift,
        fixed=[],
        sigmas=sigmas,
        system=system,
        fixed_values=[],
        sigma_values=sigma_values,
    )


def keygen_fingerprint(
    params: PublicParams, cs: ConstraintSystem, field: Field, k: int
) -> str:
    """A stable content hash of everything :func:`keygen` depends on.

    Used as the artifact-cache key for proving keys: any change to the
    circuit shape, the parameter set, the field, or the row count lands
    in a different cache entry (that *is* the invalidation mechanism).
    """
    import hashlib

    h = hashlib.blake2b(digest_size=20)
    # The tag versions what a pickled key *holds* for the same inputs:
    # cached keys whose extended_evals were laid out over a domain of
    # another size, or whose vk has no lookup arguments, must miss, not
    # load.
    h.update(b"lookup-arguments-v3|")
    h.update(f"{params.curve.name}|{params.k}|{field.p}|{k}|".encode())
    h.update(params.g[0].to_bytes())
    h.update(cs.fingerprint().encode())
    return h.hexdigest()


def cached_keygen(
    cache: "ArtifactCache",
    params: PublicParams,
    cs: ConstraintSystem,
    field: Field,
    k: int,
) -> tuple[ProvingKey, bool]:
    """:func:`keygen` through the artifact cache.

    Keygen is deterministic, so the pickled :class:`ProvingKey` (before
    fixed-column finalization -- fixed values belong to the concrete
    query run) is safe to reuse whenever the fingerprint matches.
    Returns ``(pk, was_cache_hit)``.
    """
    fingerprint = keygen_fingerprint(params, cs, field, k)
    return cache.fetch(
        "pk",
        (fingerprint,),
        build=lambda: keygen(params, cs, field, k),
    )


def finalize_fixed(pk: ProvingKey, assignment: Assignment) -> None:
    """Commit the fixed columns once their values are assigned.

    Fixed values are part of the circuit description (the prover fills
    them during synthesis), so this completes key generation.
    """
    with telemetry.span("keygen.finalize_fixed", columns=len(assignment.fixed)):
        domain, ext, shift = pk.domain, pk.extended_domain, pk.coset_shift
        fit_params = pk.vk.params
        pk.fixed_values = [list(col) for col in assignment.fixed]
        coeffs_list = domain.ifft_many(list(assignment.fixed))
        ext_list = ext.coset_fft_many(coeffs_list, shift)
        commits = commit_lagrange_many(
            fit_params, [(values, 0) for values in pk.fixed_values]
        )
        pk.fixed = [
            PolyData(coeffs=coeffs, extended_evals=ext_evals, commitment=commitment)
            for coeffs, ext_evals, commitment in zip(coeffs_list, ext_list, commits)
        ]
        pk.vk.fixed_commitments = [pd.commitment for pd in pk.fixed]
