"""Proof generation (paper workflow phase 4).

``create_proof`` executes the five Fiat-Shamir rounds described in the
package docstring.  The prover's asymptotics match the paper's design
goals: committing and FFT-ing each column is ``O(n log n)`` field work
plus one ``O(n)`` MSM, the quotient is evaluated on an extended domain
whose size is governed by the *maximum constraint degree* -- which is
why every gate in :mod:`repro.gates` is engineered for low degree.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dc_field

from repro import telemetry
from repro.algebra.field import Field
from repro.errors import ReproError
from repro.algebra.poly import evaluate_coeffs
from repro.commit.ipa import (
    commit_lagrange,
    commit_lagrange_many,
    commit_polynomials,
)
from repro.plonkish.assignment import Assignment
from repro.plonkish.constraint_system import Column, ColumnKind
from repro.proving.evaluation import evaluate_expression_ext, evaluate_expression_rows
from repro.proving.keygen import ProvingKey
from repro.proving.multiopen import OpeningClaim, multi_open
from repro.proving.proof import LookupProofPart, Proof, ShuffleProofPart
from repro.proving.protocol import collect_queries, init_transcript


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
    permutations: float = 0.0
    quotient: float = 0.0
    evaluations: float = 0.0
    multiopen: float = 0.0
    total: float = 0.0
    extra: dict[str, float] = dc_field(default_factory=dict)


class ProvingError(ReproError, ValueError):
    """Raised when the witness cannot satisfy the circuit (e.g. a lookup
    input value missing from its table)."""


def create_proof(
    pk: ProvingKey,
    assignment: Assignment,
    timing: ProverTiming | None = None,
    advice_blind_overrides: dict[int, int] | None = None,
    _faults: object | None = None,
) -> Proof:
    """Generate a non-interactive proof for ``assignment``.

    The assignment's instance columns are the public statement; all
    advice is witness.  Blinding rows are filled here.

    ``advice_blind_overrides`` pins the Pedersen blind of selected
    advice columns (by index) -- database scans use this so the prover
    can reveal the blinding delta that links the advice commitment to
    the public database commitment.

    ``_faults`` is the fault-injection hook for the soundness harness
    (:class:`repro.soundness.ProverFaults`): it makes the prover emit
    *structurally deviant but otherwise honestly-computed* proofs that
    the verifier must still reject.  Never set it in production code.
    """
    sw_total = telemetry.stopwatch().start()
    vk = pk.vk
    field: Field = vk.field
    p = field.p
    cs = vk.cs
    domain = pk.domain
    ext_domain = pk.extended_domain
    shift = pk.coset_shift
    n = domain.size
    usable = vk.usable_rows
    ext_n = ext_domain.size
    rotation_factor = ext_n // n
    params = vk.params

    queries = collect_queries(cs)

    assignment.fill_blinding()
    transcript = init_transcript(vk, assignment.instance)

    # ---- round 1: commit advice columns --------------------------------
    phase = telemetry.begin_span(
        "prove.commit_advice", columns=len(assignment.advice)
    )
    overrides = advice_blind_overrides or {}
    # Batched: per-column IFFTs and commitment MSMs are independent, so
    # they fan out across the worker pool when one is configured.  The
    # MSMs take the column values (narrow scalars); the coefficients
    # are for the later rounds.
    advice_coeffs = domain.ifft_many(list(assignment.advice))
    advice_blinds = [
        overrides.get(index, field.rand())
        for index in range(len(assignment.advice))
    ]
    advice_commitments = commit_lagrange_many(
        params, list(zip(assignment.advice, advice_blinds))
    )
    transcript.absorb_points(b"advice", advice_commitments)
    phase.end()
    if timing:
        timing.commit_advice = phase.duration

    # ---- round 2: lookup permutations (theta) ----------------------------
    phase = telemetry.begin_span("prove.lookup_commit", lookups=len(cs.lookups))
    theta = transcript.challenge_scalar(b"theta")

    def compress(exprs, row_count):
        vectors = [
            evaluate_expression_rows(
                e, assignment.query, range(row_count), p
            )
            for e in exprs
        ]
        out = [0] * row_count
        for vec in vectors:
            out = [(acc * theta + v) % p for acc, v in zip(out, vec)]
        return out

    lookup_data = []  # per lookup: dict with A, S, A', S', coeffs, blinds
    lookup_parts: list[LookupProofPart] = []
    for lookup in cs.lookups:
        telemetry.incr("lookup.rows", usable)
        a_vals = compress(lookup.inputs, usable)
        s_vals = compress(lookup.table, usable)
        a_perm, s_perm = _permute_lookup(lookup.name, a_vals, s_vals)
        # Blinding rows.
        a_full = a_perm + [field.rand() for _ in range(n - usable)]
        s_full = s_perm + [field.rand() for _ in range(n - usable)]
        a_coeffs = domain.ifft(a_full)
        s_coeffs = domain.ifft(s_full)
        a_blind, s_blind = field.rand(), field.rand()
        a_commit = commit_lagrange(params, a_full, a_blind)
        s_commit = commit_lagrange(params, s_full, s_blind)
        transcript.absorb_point(b"lookup-a", a_commit)
        transcript.absorb_point(b"lookup-s", s_commit)
        lookup_data.append(
            {
                "a_vals": a_vals,
                "s_vals": s_vals,
                "a_full": a_full,
                "s_full": s_full,
                "a_coeffs": a_coeffs,
                "s_coeffs": s_coeffs,
                "a_blind": a_blind,
                "s_blind": s_blind,
            }
        )
        lookup_parts.append(
            LookupProofPart(
                permuted_input_commitment=a_commit,
                permuted_table_commitment=s_commit,
                z_commitment=None,  # type: ignore[arg-type] - set below
            )
        )
    phase.end()
    if timing:
        timing.lookups = phase.duration

    # ---- round 3: grand products (beta, gamma) ---------------------------
    phase = telemetry.begin_span(
        "prove.grand_products", chunks=len(vk.permutation_chunks)
    )
    beta = transcript.challenge_scalar(b"beta")
    gamma = transcript.challenge_scalar(b"gamma")

    omegas = [1] * n
    for i in range(1, n):
        omegas[i] = omegas[i - 1] * domain.omega % p

    def column_values(col: Column) -> list[int]:
        if col.kind is ColumnKind.ADVICE:
            return assignment.advice[col.index]
        if col.kind is ColumnKind.FIXED:
            return assignment.fixed[col.index]
        return assignment.instance[col.index]

    # Permutation grand products, chunked (paper Eq. 2/3 generalized).
    deltas = [1]
    for _ in range(len(cs.equality_columns) - 1):
        deltas.append(deltas[-1] * vk.delta % p)

    perm_z_values: list[list[int]] = []
    carry = 1
    global_index = {col: i for i, col in enumerate(cs.equality_columns)}
    for chunk in vk.permutation_chunks:
        numer = [1] * usable
        denom = [1] * usable
        for col in chunk:
            gi = global_index[col]
            w = column_values(col)
            sigma = pk.sigma_values[gi]
            for i in range(usable):
                numer[i] = numer[i] * ((w[i] + beta * deltas[gi] % p * omegas[i] + gamma) % p) % p
                denom[i] = denom[i] * ((w[i] + beta * sigma[i] + gamma) % p) % p
        denom_inv = field.batch_inv(denom)
        z = [0] * n
        z[0] = carry
        for i in range(usable):
            nxt = z[i] * numer[i] % p * denom_inv[i] % p
            if i + 1 < n:
                z[i + 1] = nxt
        carry = z[usable]
        for i in range(usable + 1, n):
            z[i] = field.rand()
        perm_z_values.append(z)

    perm_z_coeffs = domain.ifft_many(perm_z_values)
    perm_z_blinds = [field.rand() for _ in perm_z_values]
    perm_z_commitments = commit_lagrange_many(
        params, list(zip(perm_z_values, perm_z_blinds))
    )
    transcript.absorb_points(b"perm-z", perm_z_commitments)

    # Lookup grand products.
    for data, part in zip(lookup_data, lookup_parts):
        a_vals, s_vals = data["a_vals"], data["s_vals"]
        a_perm, s_perm = data["a_full"], data["s_full"]
        denom = [
            (a_perm[i] + beta) * (s_perm[i] + gamma) % p for i in range(usable)
        ]
        denom_inv = field.batch_inv(denom)
        z = [0] * n
        z[0] = 1
        for i in range(usable):
            ratio = (a_vals[i] + beta) * (s_vals[i] + gamma) % p * denom_inv[i] % p
            nxt = z[i] * ratio % p
            if i + 1 < n:
                z[i + 1] = nxt
        if z[usable] != 1:
            raise ProvingError(
                "lookup grand product does not close; an input value is "
                "missing from the lookup table"
            )
        for i in range(usable + 1, n):
            z[i] = field.rand()
        z_coeffs = domain.ifft(z)
        z_blind = field.rand()
        z_commit = commit_lagrange(params, z, z_blind)
        transcript.absorb_point(b"lookup-z", z_commit)
        data["z_coeffs"] = z_coeffs
        data["z_blind"] = z_blind
        part.z_commitment = z_commit

    # Shuffle grand products (paper Eq. 5, generalized to tuple groups).
    shuffle_parts: list[ShuffleProofPart] = []
    shuffle_data: list[dict] = []
    for shuffle in cs.shuffles:
        input_vecs = [compress(group, usable) for group in shuffle.input_groups]
        table_vecs = [compress(group, usable) for group in shuffle.table_groups]
        denom = [1] * usable
        for vec in table_vecs:
            for i in range(usable):
                denom[i] = denom[i] * ((vec[i] + gamma) % p) % p
        numer = [1] * usable
        for vec in input_vecs:
            for i in range(usable):
                numer[i] = numer[i] * ((vec[i] + gamma) % p) % p
        denom_inv = field.batch_inv(denom)
        z = [0] * n
        z[0] = 1
        for i in range(usable):
            nxt = z[i] * numer[i] % p * denom_inv[i] % p
            if i + 1 < n:
                z[i + 1] = nxt
        if z[usable] != 1:
            raise ProvingError(
                f"shuffle {shuffle.name!r} grand product does not close; "
                "the two sides are not equal as multisets"
            )
        for i in range(usable + 1, n):
            z[i] = field.rand()
        z_coeffs = domain.ifft(z)
        z_blind = field.rand()
        z_commit = commit_lagrange(params, z, z_blind)
        transcript.absorb_point(b"shuffle-z", z_commit)
        shuffle_data.append({"z_coeffs": z_coeffs, "z_blind": z_blind})
        shuffle_parts.append(ShuffleProofPart(z_commitment=z_commit))
    phase.end()
    if timing:
        timing.permutations = phase.duration

    # ---- round 4: quotient polynomial (y) ---------------------------------
    phase = telemetry.begin_span("prove.quotient", extended_n=ext_n)
    y = transcript.challenge_scalar(b"y")

    # Extended-coset evaluations of every polynomial the constraints read.
    ext_cache: dict[tuple[str, int], list[int]] = {}

    def ext_of_coeffs(tag: str, index: int, coeffs: list[int]) -> list[int]:
        key = (tag, index)
        if key not in ext_cache:
            ext_cache[key] = ext_domain.coset_fft(coeffs, shift)
        return ext_cache[key]

    instance_coeffs = domain.ifft_many(list(assignment.instance))

    def get_column_ext(col: Column) -> list[int]:
        if col.kind is ColumnKind.ADVICE:
            return ext_of_coeffs("advice", col.index, advice_coeffs[col.index])
        if col.kind is ColumnKind.FIXED:
            return pk.fixed[col.index].extended_evals
        return ext_of_coeffs("instance", col.index, instance_coeffs[col.index])

    x_ext = [0] * ext_n
    x_ext[0] = shift % p
    for j in range(1, ext_n):
        x_ext[j] = x_ext[j - 1] * ext_domain.omega % p

    combined = [0] * ext_n

    def fold_in(values: list[int]) -> None:
        for j in range(ext_n):
            combined[j] = (combined[j] * y + values[j]) % p

    def rot(values: list[int], by_rows: int) -> list[int]:
        s = (by_rows * rotation_factor) % ext_n
        return values[s:] + values[:s]

    l0_ext = pk.system["l0"].extended_evals
    l_last_ext = pk.system["l_last"].extended_evals
    active_ext = pk.system["l_active"].extended_evals

    # 1) gate constraints (implicitly gated to active rows, so advice
    #    cells randomized in the blinding region never violate gates)
    for gate in cs.gates:
        for constraint in gate.constraints:
            values = evaluate_expression_ext(
                constraint, get_column_ext, ext_n, rotation_factor, p
            )
            fold_in(
                [active_ext[t] * values[t] % p for t in range(ext_n)]
            )

    # 2) permutation constraints
    perm_z_ext = [
        ext_of_coeffs("perm-z", j, coeffs) for j, coeffs in enumerate(perm_z_coeffs)
    ]
    for j, chunk in enumerate(vk.permutation_chunks):
        if j == 0:
            fold_in(
                [l0_ext[t] * ((perm_z_ext[0][t] - 1) % p) % p for t in range(ext_n)]
            )
        else:
            prev_rot = rot(perm_z_ext[j - 1], usable)
            fold_in(
                [
                    l0_ext[t] * ((perm_z_ext[j][t] - prev_rot[t]) % p) % p
                    for t in range(ext_n)
                ]
            )
        numer = [1] * ext_n
        denom = [1] * ext_n
        for col in chunk:
            gi = global_index[col]
            w_ext = get_column_ext(col)
            sigma_ext = pk.sigmas[gi].extended_evals
            d_gi = deltas[gi]
            for t in range(ext_n):
                numer[t] = numer[t] * ((w_ext[t] + beta * d_gi % p * x_ext[t] + gamma) % p) % p
                denom[t] = denom[t] * ((w_ext[t] + beta * sigma_ext[t] + gamma) % p) % p
        z_next = rot(perm_z_ext[j], 1)
        z_cur = perm_z_ext[j]
        fold_in(
            [
                active_ext[t]
                * ((z_next[t] * denom[t] - z_cur[t] * numer[t]) % p)
                % p
                for t in range(ext_n)
            ]
        )
    if vk.permutation_chunks:
        z_last_next = rot(perm_z_ext[-1], 1)
        fold_in(
            [l_last_ext[t] * ((z_last_next[t] - 1) % p) % p for t in range(ext_n)]
        )

    # 3) lookup constraints
    for li, (lookup, data) in enumerate(zip(cs.lookups, lookup_data)):
        a_ext = ext_of_coeffs("lookup-a", li, data["a_coeffs"])
        s_ext = ext_of_coeffs("lookup-s", li, data["s_coeffs"])
        z_ext = ext_of_coeffs("lookup-z", li, data["z_coeffs"])
        # Compressed input/table expressions on the extended domain.
        a_input = [0] * ext_n
        for expr in lookup.inputs:
            vals = evaluate_expression_ext(
                expr, get_column_ext, ext_n, rotation_factor, p
            )
            a_input = [(acc * theta + v) % p for acc, v in zip(a_input, vals)]
        s_table = [0] * ext_n
        for expr in lookup.table:
            vals = evaluate_expression_ext(
                expr, get_column_ext, ext_n, rotation_factor, p
            )
            s_table = [(acc * theta + v) % p for acc, v in zip(s_table, vals)]
        z_next = rot(z_ext, 1)
        a_prev = rot(a_ext, -1)
        fold_in([l0_ext[t] * ((z_ext[t] - 1) % p) % p for t in range(ext_n)])
        fold_in(
            [
                active_ext[t]
                * (
                    (
                        z_next[t]
                        * ((a_ext[t] + beta) % p)
                        % p
                        * ((s_ext[t] + gamma) % p)
                        - z_ext[t]
                        * ((a_input[t] + beta) % p)
                        % p
                        * ((s_table[t] + gamma) % p)
                    )
                    % p
                )
                % p
                for t in range(ext_n)
            ]
        )
        fold_in([l_last_ext[t] * ((z_next[t] - 1) % p) % p for t in range(ext_n)])
        fold_in(
            [l0_ext[t] * ((a_ext[t] - s_ext[t]) % p) % p for t in range(ext_n)]
        )
        fold_in(
            [
                active_ext[t]
                * ((a_ext[t] - s_ext[t]) % p)
                % p
                * ((a_ext[t] - a_prev[t]) % p)
                % p
                for t in range(ext_n)
            ]
        )

    # 4) shuffle constraints
    for si, (shuffle, data) in enumerate(zip(cs.shuffles, shuffle_data)):
        z_ext = ext_of_coeffs("shuffle-z", si, data["z_coeffs"])
        z_next = rot(z_ext, 1)

        def group_products(groups):
            prod = [1] * ext_n
            for group in groups:
                compressed = [0] * ext_n
                for expr in group:
                    vals = evaluate_expression_ext(
                        expr, get_column_ext, ext_n, rotation_factor, p
                    )
                    compressed = [
                        (acc * theta + v) % p for acc, v in zip(compressed, vals)
                    ]
                for t in range(ext_n):
                    prod[t] = prod[t] * ((compressed[t] + gamma) % p) % p
            return prod

        input_prod = group_products(shuffle.input_groups)
        table_prod = group_products(shuffle.table_groups)
        fold_in([l0_ext[t] * ((z_ext[t] - 1) % p) % p for t in range(ext_n)])
        fold_in(
            [
                active_ext[t]
                * ((z_next[t] * table_prod[t] - z_ext[t] * input_prod[t]) % p)
                % p
                for t in range(ext_n)
            ]
        )
        fold_in([l_last_ext[t] * ((z_next[t] - 1) % p) % p for t in range(ext_n)])

    # Divide by the vanishing polynomial Z_H(X) = X^n - 1 (nonzero on
    # the coset).  Its values repeat with period ext_n / n.
    period = rotation_factor
    shift_n = pow(shift, n, p)
    omega_ext_n = pow(ext_domain.omega, n, p)
    zh_distinct = []
    acc = shift_n
    for _ in range(period):
        zh_distinct.append((acc - 1) % p)
        acc = acc * omega_ext_n % p
    zh_inv = field.batch_inv(zh_distinct)
    quotient = [
        combined[j] * zh_inv[j % period] % p for j in range(ext_n)
    ]
    h_coeffs = ext_domain.coset_ifft(quotient, shift)
    # Trim trailing zeros, then split into n-sized pieces.
    while len(h_coeffs) > 1 and h_coeffs[-1] == 0:
        h_coeffs.pop()
    pieces = [h_coeffs[i : i + n] for i in range(0, len(h_coeffs), n)] or [[0]]
    # Fault injection (soundness harness only): pad the quotient with
    # zero chunks.  The proof stays internally consistent -- every eval
    # and opening is honest -- so only a structural degree bound in the
    # verifier can reject it.
    for _ in range(int(getattr(_faults, "extra_h_chunks", 0) or 0)):
        pieces.append([0])
    h_blinds = [field.rand() for _ in pieces]
    h_commitments = commit_polynomials(params, list(zip(pieces, h_blinds)))
    transcript.absorb_points(b"h", h_commitments)
    phase.end()
    if timing:
        timing.quotient = phase.duration

    # ---- round 5: evaluations at x -----------------------------------------
    phase = telemetry.begin_span("prove.evaluations")
    x = transcript.challenge_scalar(b"x")

    proof = Proof(
        advice_commitments=advice_commitments,
        lookup_parts=lookup_parts,
        shuffle_parts=shuffle_parts,
        permutation_z_commitments=perm_z_commitments,
        h_commitments=h_commitments,
    )

    def point_at(rotation: int) -> int:
        return domain.rotated_point(x, rotation)

    for ci, rotation in queries.advice:
        proof.advice_evals[(ci, rotation)] = evaluate_coeffs(
            advice_coeffs[ci], point_at(rotation), p
        )
    for ci, rotation in queries.fixed:
        proof.fixed_evals[(ci, rotation)] = evaluate_coeffs(
            pk.fixed[ci].coeffs, point_at(rotation), p
        )
    proof.sigma_evals = [
        evaluate_coeffs(pd.coeffs, x, p) for pd in pk.sigmas
    ]
    proof.system_evals = {
        name: evaluate_coeffs(pd.coeffs, x, p)
        for name, pd in pk.system.items()
    }
    x_next = point_at(1)
    x_prev = point_at(-1)
    x_chain = domain.rotated_point(x, usable)
    n_chunks = len(vk.permutation_chunks)
    for j, coeffs in enumerate(perm_z_coeffs):
        entry = {
            "x": evaluate_coeffs(coeffs, x, p),
            "wx": evaluate_coeffs(coeffs, x_next, p),
        }
        if n_chunks > 1 and j < n_chunks - 1:
            entry["chain"] = evaluate_coeffs(coeffs, x_chain, p)
        proof.permutation_z_evals.append(entry)
    for data, part in zip(lookup_data, lookup_parts):
        part.z_x = evaluate_coeffs(data["z_coeffs"], x, p)
        part.z_wx = evaluate_coeffs(data["z_coeffs"], x_next, p)
        part.permuted_input_x = evaluate_coeffs(data["a_coeffs"], x, p)
        part.permuted_input_winv_x = evaluate_coeffs(data["a_coeffs"], x_prev, p)
        part.permuted_table_x = evaluate_coeffs(data["s_coeffs"], x, p)
    for data, part in zip(shuffle_data, shuffle_parts):
        part.z_x = evaluate_coeffs(data["z_coeffs"], x, p)
        part.z_wx = evaluate_coeffs(data["z_coeffs"], x_next, p)
    proof.h_evals = [evaluate_coeffs(piece, x, p) for piece in pieces]

    _absorb_evaluations(transcript, proof)
    phase.end()
    if timing:
        timing.evaluations = phase.duration

    # ---- multiopen --------------------------------------------------------
    phase = telemetry.begin_span("prove.multiopen")
    claims: list[OpeningClaim] = []

    def claim(point, coeffs, blind, commitment, evaluation):
        claims.append(OpeningClaim(point, coeffs, blind, commitment, evaluation))

    for ci, rotation in queries.advice:
        claim(
            point_at(rotation),
            advice_coeffs[ci],
            advice_blinds[ci],
            advice_commitments[ci],
            proof.advice_evals[(ci, rotation)],
        )
    for ci, rotation in queries.fixed:
        claim(
            point_at(rotation),
            pk.fixed[ci].coeffs,
            0,
            pk.fixed[ci].commitment,
            proof.fixed_evals[(ci, rotation)],
        )
    for gi, pd in enumerate(pk.sigmas):
        claim(x, pd.coeffs, 0, pd.commitment, proof.sigma_evals[gi])
    for name in sorted(pk.system):
        pd = pk.system[name]
        claim(x, pd.coeffs, 0, pd.commitment, proof.system_evals[name])
    for j, (coeffs, blind, commitment) in enumerate(
        zip(perm_z_coeffs, perm_z_blinds, perm_z_commitments)
    ):
        entry = proof.permutation_z_evals[j]
        claim(x, coeffs, blind, commitment, entry["x"])
        claim(x_next, coeffs, blind, commitment, entry["wx"])
        if "chain" in entry:
            claim(x_chain, coeffs, blind, commitment, entry["chain"])
    for data, part in zip(lookup_data, lookup_parts):
        claim(x, data["z_coeffs"], data["z_blind"], part.z_commitment, part.z_x)
        claim(x_next, data["z_coeffs"], data["z_blind"], part.z_commitment, part.z_wx)
        claim(x, data["a_coeffs"], data["a_blind"],
              part.permuted_input_commitment, part.permuted_input_x)
        claim(x_prev, data["a_coeffs"], data["a_blind"],
              part.permuted_input_commitment, part.permuted_input_winv_x)
        claim(x, data["s_coeffs"], data["s_blind"],
              part.permuted_table_commitment, part.permuted_table_x)
    for data, part in zip(shuffle_data, shuffle_parts):
        claim(x, data["z_coeffs"], data["z_blind"], part.z_commitment, part.z_x)
        claim(x_next, data["z_coeffs"], data["z_blind"], part.z_commitment,
              part.z_wx)
    for piece, blind, commitment, evaluation in zip(
        pieces, h_blinds, h_commitments, proof.h_evals
    ):
        claim(x, piece, blind, commitment, evaluation)

    proof.openings = multi_open(params, transcript, claims, field)
    phase.set(claims=len(claims)).end()
    sw_total.end()
    if timing:
        timing.multiopen = phase.duration
        timing.total = sw_total.duration
    return proof


def _absorb_evaluations(transcript, proof: Proof) -> None:
    """Absorb all x-evaluations in canonical order (mirrored verbatim by
    the verifier)."""
    for key in sorted(proof.advice_evals):
        transcript.absorb_scalar(b"eval-advice", proof.advice_evals[key])
    for key in sorted(proof.fixed_evals):
        transcript.absorb_scalar(b"eval-fixed", proof.fixed_evals[key])
    transcript.absorb_scalars(b"eval-sigma", proof.sigma_evals)
    for name in sorted(proof.system_evals):
        transcript.absorb_scalar(b"eval-system", proof.system_evals[name])
    for entry in proof.permutation_z_evals:
        for key in sorted(entry):
            transcript.absorb_scalar(b"eval-perm-z", entry[key])
    for part in proof.lookup_parts:
        transcript.absorb_scalars(
            b"eval-lookup",
            [
                part.z_x,
                part.z_wx,
                part.permuted_input_x,
                part.permuted_input_winv_x,
                part.permuted_table_x,
            ],
        )
    for part in proof.shuffle_parts:
        transcript.absorb_scalars(b"eval-shuffle", [part.z_x, part.z_wx])
    transcript.absorb_scalars(b"eval-h", proof.h_evals)


def _permute_lookup(
    name: str, a_vals: list[int], s_vals: list[int]
) -> tuple[list[int], list[int]]:
    """Build the permuted pairs (A', S') of the Plookup argument:
    A' is A sorted with duplicates adjacent; S' is a permutation of S
    aligning each first occurrence in A' with the equal table value.

    Raises :class:`ProvingError` when some input value is absent from
    the table (no witness exists; this is the soundness path a cheating
    prover hits).
    """
    if len(a_vals) != len(s_vals):
        raise ProvingError(
            f"lookup {name!r}: input rows ({len(a_vals)}) != table rows "
            f"({len(s_vals)}); pad the smaller side"
        )
    leftover = Counter(s_vals)
    a_sorted = sorted(a_vals)
    s_perm: list[int | None] = [None] * len(s_vals)
    for i, value in enumerate(a_sorted):
        if i == 0 or value != a_sorted[i - 1]:
            if leftover[value] <= 0:
                raise ProvingError(
                    f"lookup {name!r}: input value {value} not in table"
                )
            leftover[value] -= 1
            s_perm[i] = value
    spare = [v for v, count in leftover.items() for _ in range(count)]
    spare_iter = iter(spare)
    for i, slot in enumerate(s_perm):
        if slot is None:
            s_perm[i] = next(spare_iter)
    assert all(v is not None for v in s_perm)
    return a_sorted, s_perm  # type: ignore[return-value]
