"""Malicious-prover soundness harness.

The completeness tests show honest proofs verify; this module attacks
the other direction.  A *tamper engine* takes one honest
``(vk, proof, instance)`` triple and enumerates mutations of the proof,
asserting every single one is rejected -- either by the strict wire
decoder (:meth:`repro.proving.proof.Proof.from_bytes`) or by the
cryptographic checks in :func:`repro.proving.verifier.verify_proof`.

Three mutation families:

**Field-level** (:func:`field_mutators`): every field of the
:class:`~repro.proving.proof.Proof` dataclass is perturbed through the
wire path -- points shifted by the curve generator, scalars bumped by
one, list entries dropped / duplicated / swapped, IPA rounds and final
scalars tampered.  Structural mutations (wrong counts) must die in the
decoder; value mutations must die in verification.

**Byte-level** (:func:`byte_mutations`): classes ``bit-flip``,
``truncate``, ``extend``, ``swap`` and ``duplicate`` applied directly
to the honest wire bytes, sampling positions with a stride so the sweep
stays fast at any proof size.  Swaps of equal bytes are skipped -- they
reproduce the honest encoding and would be false "accepts".

**Claim-level** (:func:`claim_mutators`): the proof is left alone and
what is claimed *around* it is attacked -- scan links repeated,
dropped or pointed at another column, deltas and result values bumped
or shifted by ``+-p``, result rows added and dropped.  These go
through every surface of
:class:`~repro.system.verifier_node.VerifierNode`.

:func:`run_tamper_suite` drives the first two families and returns a
:class:`TamperReport`; the acceptance criterion everywhere is
``report.accepted == []``.

The harness also exposes :class:`ProverFaults`, a fault-injection knob
consumed by ``create_proof(..., _faults=...)`` to produce proofs an
honest prover never emits but a cheating one would: *honestly computed
but structurally out-of-spec* ones (zero-padded quotient chunks beyond
the vk bound -- the regression vector for the h-chunk bound check), and
ones whose lookup-argument advice (multiplicities, helper columns,
running sum) is chosen to smuggle a value past its table.  Byte
mutations cannot reach either: the first kind is well-formed, and the
second needs every later round recomputed around the lie.

**Witness-level** (:func:`truncate_result`, :func:`misorder_rows`,
:func:`merge_groups`): cheats of a *compiled query's* prover, plugged
into ``ProverFaults.rewrite_witness``.  Each rewrites the honest
assignment into a self-consistent wrong answer -- every lookup and
shuffle still holds, so :func:`create_proof` goes through -- that
breaks exactly one gate; ``MockProver`` names it, the verifier rejects.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Any, Callable, Iterator

from repro.proving.proof import SECTIONS, Proof
from repro.proving.verifier import verify_proof
from repro.wire import WireFormatError


@dataclass
class ProverFaults:
    """Fault-injection switches for ``create_proof(..., _faults=...)``.

    Never set in production; exists so soundness tests can make an
    otherwise-honest prover emit structurally deviant proofs.

    ``extra_h_chunks``: append this many zero quotient chunks after the
    honest split.  The zero chunks do not change the quotient
    polynomial, so a verifier without the chunk-count bound accepts the
    proof -- the bound check is what rejects it.

    The others attack the lookup argument's prover-chosen columns; each
    leaves every constraint but one satisfied, so each has exactly one
    term of ``protocol.lookup_sum_terms`` / ``lookup_helper_terms``
    standing between it and acceptance:

    ``misbook_lookup``: an input value missing from its table is booked
    on the table's row 0 instead of raising, and the running sum is
    sent although it does not return to 0 (guard: ``last * phi(wX)``).

    ``close_lookup_sum``: the running sum's final cell is overwritten
    with 0 (with ``misbook_lookup``: the sum now "closes", its last
    step is wrong; guard: the ``active`` step term).

    ``bend_helper``: every argument's first helper column is off by +1
    on row 0 and by -1 on row 1, so the running sum it feeds still
    closes (guard: ``lookup_helper_terms``).

    ``swap_helpers``: every argument's first two helper columns are
    committed in each other's place; their sum, hence the running sum,
    is unchanged (guard: ``lookup_helper_terms``).

    ``rewrite_witness`` is read by ``ProverNode.answer(sql,
    _faults=...)`` instead: called as ``(compiled, assignment, rows)``
    on the honest witness, it rewrites the assignment and returns the
    rows the cheating prover claims (the witness-level cheats below).
    """

    extra_h_chunks: int = 0
    misbook_lookup: bool = False
    close_lookup_sum: bool = False
    bend_helper: bool = False
    swap_helpers: bool = False
    rewrite_witness: Callable[[Any, Any, list], list] | None = None


@dataclass
class TamperReport:
    """Outcome of one tamper sweep."""

    total: int = 0
    rejected_decode: int = 0
    rejected_verify: int = 0
    #: labels of mutations that VERIFIED -- soundness bugs; must be [].
    accepted: list[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def record(self, label: str, outcome: str) -> None:
        """Tally one mutation's outcome (``"decode"``, ``"verify"`` or
        ``"accepted"``)."""
        self.total += 1
        if outcome == "decode":
            self.rejected_decode += 1
        elif outcome == "verify":
            self.rejected_verify += 1
        else:
            self.accepted.append(label)

    def summary(self) -> str:
        return (
            f"{self.total} mutations: {self.rejected_decode} rejected at "
            f"decode, {self.rejected_verify} rejected at verify, "
            f"{len(self.accepted)} ACCEPTED in "
            f"{self.elapsed_seconds:.1f}s"
        )


# -- field-level mutations --------------------------------------------------

Mutator = Callable[[Proof], None]


def _shift(pt):
    """A different valid point: the input shifted by the generator."""
    return pt + pt.curve.generator


def field_mutators(template: Proof) -> Iterator[tuple[str, Mutator]]:
    """Yield ``(label, mutate)`` pairs covering every Proof field, by
    walking the proof schema (:data:`repro.proving.proof.SECTIONS`):
    every point shifted, every scalar bumped, every section's container
    shortened / lengthened / reordered, then the IPA opening's own
    fields.

    ``template`` is only inspected for shape (list lengths, dict keys);
    each mutator is applied to a *fresh* decode of the honest bytes.
    """
    for n, (label, _, _, is_point) in enumerate(template.leaves()):
        def bump(pr, n=n):
            _, container, key, is_point = next(islice(pr.leaves(), n, None))
            cell = container[key]
            container[key] = _shift(cell) if is_point else cell + 1

        yield f"{label}+{'G' if is_point else '1'}", bump

    for section in SECTIONS:
        name, value = section.attr, getattr(template, section.attr)
        if not value:
            continue
        if isinstance(value, dict):
            yield f"{name}.drop", lambda pr, name=name: getattr(pr, name).popitem()
            continue
        yield f"{name}.drop", lambda pr, name=name: getattr(pr, name).pop()
        yield (
            f"{name}.dup",
            lambda pr, name=name: getattr(pr, name).append(getattr(pr, name)[-1]),
        )
        if len(value) >= 2 and value[0] != value[-1]:
            def swap(pr, name=name):
                lst = getattr(pr, name)
                lst[0], lst[-1] = lst[-1], lst[0]

            yield f"{name}.swap", swap

    for i, ipa in enumerate(template.openings):
        for attr in ("a", "blind"):
            yield (
                f"openings[{i}].{attr}+1",
                lambda pr, i=i, attr=attr: setattr(
                    pr.openings[i], attr, getattr(pr.openings[i], attr) + 1
                ),
            )
        for j in range(len(ipa.rounds)):
            for side, idx in (("L", 0), ("R", 1)):
                def tamper_round(pr, i=i, j=j, idx=idx):
                    pair = list(pr.openings[i].rounds[j])
                    pair[idx] = _shift(pair[idx])
                    pr.openings[i].rounds[j] = tuple(pair)

                yield f"openings[{i}].rounds[{j}].{side}+G", tamper_round
        yield (
            f"openings[{i}].rounds.drop",
            lambda pr, i=i: pr.openings[i].rounds.pop(),
        )


# -- claim-level mutations --------------------------------------------------

ClaimMutator = Callable[[Any], None]


def claim_mutators(p: int) -> Iterator[tuple[str, ClaimMutator]]:
    """Yield ``(label, mutate)`` pairs that leave the proof alone (but
    for one flipped byte) and perturb what is *claimed* around it: the
    scan links that bind it to the database commitment and the encoded
    result it is checked against, over the scalar field of order ``p``.

    ``mutate`` edits, in place, anything with ``scan_links`` /
    ``result_encoded`` / ``proof_bytes`` (a ``QueryResponse``, an
    ``AggEntry``) whose lists the caller has copied; links are replaced,
    never written to.  The honest claim needs two scan links and one
    result row for every mutation to differ from it.
    """

    def relink(c, **changes) -> None:
        c.scan_links[0] = replace(c.scan_links[0], **changes)

    def repeat_first(c) -> None:
        c.scan_links[:] = [c.scan_links[0]] * len(c.scan_links)

    def bump_cell(c, by: int) -> None:
        c.result_encoded[0][0] += by

    def flip_byte(c) -> None:
        raw = bytearray(c.proof_bytes)
        raw[-40] ^= 1  # inside the IPA proof: decodes, must not verify
        c.proof_bytes = bytes(raw)

    yield "links.repeat-first", repeat_first
    yield "links.dup", lambda c: c.scan_links.append(c.scan_links[-1])
    yield "links.drop", lambda c: c.scan_links.pop()
    yield "links[0].other-column", lambda c: relink(
        c, column=c.scan_links[1].column
    )
    yield "links[0].other-advice", lambda c: relink(
        c, advice_index=c.scan_links[1].advice_index
    )
    for label, by in (("+1", 1), ("+p", p), ("-p", -p)):
        yield f"links[0].delta{label}", lambda c, by=by: relink(
            c, delta=c.scan_links[0].delta + by
        )
        yield f"result[0][0]{label}", lambda c, by=by: bump_cell(c, by)
    yield "result.extra-row", lambda c: c.result_encoded.append(
        list(c.result_encoded[0])
    )
    yield "result.drop-row", lambda c: c.result_encoded.pop()
    yield "result[0].extra-column", lambda c: c.result_encoded[0].append(0)
    yield "proof.bit-flip", flip_byte


# -- witness-level cheats ----------------------------------------------------


def truncate_result(compiled, asg, rows: list) -> list:
    """Claim every result row but the last; the witness stays honest.
    (Guard: ``result_complete``, the row after the claim must not be a
    valid row of the final relation.)"""
    return rows[:-1]


def _chip_columns(cs, chip: str) -> dict[str, Any]:
    """The columns of the last chip the compiler named ``<chip><n>``,
    by the part of their name after that prefix."""
    found: dict[int, dict[str, Any]] = {}
    for col in cs.advice_columns:
        match = re.fullmatch(rf"{chip}(\d+)\.(.+)", col.name)
        if match:
            found.setdefault(int(match[1]), {})[match[2]] = col
    if not found:
        raise ValueError(f"the circuit has no {chip} chip")
    return found[max(found)]


def _numbered(columns: dict[str, Any], prefix: str) -> list:
    """``columns[prefix + "0"], columns[prefix + "1"], ...`` (a chip
    creates them in that order)."""
    return [
        col for name, col in columns.items()
        if re.fullmatch(re.escape(prefix) + r"\d+", name)
    ]


def misorder_rows(compiled, asg, rows: list) -> list:
    """Swap the first two rows of the final ``ORDER BY``: in the sort's
    output (still a permutation of its input) and in the claim.  The
    sortedness limbs of row 0 get the decomposition of the *positive*
    difference -- in range, every lookup holds -- and row 1's are
    redone honestly.  (Guard: ``osort.sorted.recompose`` -- no limbs of
    the packed key's width add up to a negative difference.)  Needs
    ``ORDER BY`` as the last operator and two rows with distinct keys."""
    sort = _chip_columns(compiled.cs, "osort")
    outs, limbs = _numbered(sort, "out"), _numbered(sort, "sorted.limb")
    table = next(c for c in compiled.cs.fixed_columns if c.name == "u_table")
    bits = max(asg.fixed[table.index]).bit_length()
    for col in outs:
        first, second = asg.value(col, 0), asg.value(col, 1)
        asg.assign(col, 0, second)
        asg.assign(col, 1, first)
    key = [asg.value(outs[0], row) for row in range(3)]
    if key[0] >= key[1]:
        raise ValueError("the first two rows do not differ in their sort key")
    for row, difference in ((0, key[1] - key[0]), (1, key[1] - key[2])):
        for i, limb in enumerate(limbs):
            asg.assign(limb, row, (difference >> (bits * i)) % (1 << bits))
    return compiled.result_rows(asg)


def merge_groups(compiled, asg, rows: list) -> list:
    """Merge the first two groups of the final ``GROUP BY``: the
    boundary row between them is flagged ``same``, the running
    aggregates run on across it, and the compacted output -- one row
    fewer, the second group's key with both groups' aggregates -- is
    rewritten to match, so both shuffles still hold.  (Guard:
    ``gb.same`` -- the packed keys of the two rows differ.)  Needs the
    aggregate (without AVG) as the last operator and two groups."""
    cs = compiled.cs
    gb, sort = _chip_columns(cs, "gb"), _chip_columns(cs, "gsort")
    compact = _chip_columns(cs, "gcompact")
    same, end, valid = gb["same"], gb["end"], _numbered(sort, "out")[-1]
    usable = asg.usable_rows
    boundary = next(
        row for row in range(1, usable)
        if asg.value(valid, row - 1) and not asg.value(same, row)
    )
    running = [c for c in cs.advice_columns if re.fullmatch(r"run\..*\.m", c.name)]
    steps = {
        m: [
            asg.value(m, row) - asg.value(same, row) * asg.value(m, row - 1)
            for row in range(usable)
        ]
        for m in running
    }
    asg.assign(same, boundary, 1)
    asg.assign(end, boundary - 1, 0)
    for m, step in steps.items():
        for row in range(boundary, usable):
            asg.assign(m, row, asg.value(same, row) * asg.value(m, row - 1) + step[row])
    shuffle = next(
        s for s in reversed(cs.shuffles) if re.fullmatch(r"gcompact\d+\.compact", s.name)
    )
    tuples = [
        [asg.evaluate(e, row) for e in shuffle.input_groups[0]]
        for row in range(usable)
    ]
    flagged = [values for flag, *values in tuples if flag]
    columns = [compact["q_out"], *_numbered(compact, "out")]
    for col, values in zip(columns, zip(*[[1, *v] for v in flagged])):
        asg.assign_column(col, list(values) + [0] * (usable - len(values)))
    return compiled.result_rows(asg)


# -- byte-level mutations ---------------------------------------------------


def byte_mutations(
    data: bytes, stride: int | None = None
) -> Iterator[tuple[str, bytes]]:
    """Yield ``(label, mutated_bytes)`` for every mutation class.

    ``stride`` controls how many byte positions are sampled (default:
    about 40 positions spread over the proof); every class is exercised
    at the start, middle, and end regardless of stride.
    """
    n = len(data)
    if stride is None:
        stride = max(1, n // 40)
    positions = sorted(set(range(0, n, stride)) | {0, 1, n // 2, n - 1})

    for i in positions:
        flipped = bytearray(data)
        flipped[i] ^= 1 << (i % 8)
        yield f"bit-flip@{i}.{i % 8}", bytes(flipped)

    for cut in sorted({n - 1, n - 32, n - 64, n // 2, 4, 0}):
        if 0 <= cut < n:
            yield f"truncate->{cut}", data[:cut]

    yield "extend+1zero", data + b"\x00"
    yield "extend+32ff", data + b"\xff" * 32
    yield "extend+self-prefix", data + data[:17]

    for i in positions:
        j = (i + max(1, n // 3)) % n
        if i != j and data[i] != data[j]:
            swapped = bytearray(data)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            yield f"swap@{min(i, j)}<->{max(i, j)}", bytes(swapped)

    for i in positions[:: max(1, len(positions) // 8)]:
        yield f"duplicate@{i}", data[: i + 1] + data[i:]


# -- the driver -------------------------------------------------------------


def check_tampered_bytes(vk, data: bytes, instance: list[list[int]]) -> str:
    """Classify one mutated byte string: ``"decode"`` (rejected by the
    wire gate), ``"verify"`` (decoded but cryptographically rejected),
    or ``"accepted"`` (a soundness failure)."""
    try:
        proof = Proof.from_bytes(vk, data)
    except WireFormatError:
        return "decode"
    return "accepted" if verify_proof(vk, proof, instance) else "verify"


def check_tampered_aggregate(verifier, data: bytes) -> str:
    """Classify one mutated ``PDBA`` byte string against a
    :class:`~repro.system.verifier_node.VerifierNode`: ``"decode"``
    (rejected by the strict aggregate wire gate), ``"verify"`` (decoded
    but rejected by fingerprint binding or the folded verification), or
    ``"accepted"`` (a soundness failure)."""
    from repro.proving.aggregate import AggProof

    try:
        AggProof.from_bytes(data)
    except WireFormatError:
        return "decode"
    return "accepted" if verifier.verify_aggregate(data).accepted else "verify"


def run_aggregate_tamper_suite(
    verifier, agg_bytes: bytes, *, stride: int | None = None
) -> TamperReport:
    """Byte-level tamper sweep over an aggregated claim's ``PDBA``
    wire bytes (the aggregate is an *envelope* of proof claims, so
    field-level proof mutations are covered by :func:`run_tamper_suite`
    on the inner proofs; the new surface here is the envelope itself:
    fingerprint, counts, results, scan links, and entry framing).

    The honest bytes must accept first; then every mutation class
    (bit-flip / truncate / extend / swap / duplicate) must be rejected
    at decode or verify.  Acceptance criterion: ``report.accepted ==
    []``.
    """
    t0 = time.perf_counter()
    report = TamperReport()
    if check_tampered_aggregate(verifier, agg_bytes) != "accepted":
        raise AssertionError("honest aggregate failed its own round-trip")
    for label, mutated in byte_mutations(agg_bytes, stride):
        report.record(
            f"agg-bytes:{label}", check_tampered_aggregate(verifier, mutated)
        )
    report.elapsed_seconds = time.perf_counter() - t0
    return report


def run_tamper_suite(
    vk,
    proof: Proof,
    instance: list[list[int]],
    *,
    stride: int | None = None,
    include_field_level: bool = True,
    include_byte_level: bool = True,
) -> TamperReport:
    """Run the full tamper sweep against one honest proof.

    The honest bytes are round-trip-checked first (decode must succeed
    and verify must accept), then every mutation must be rejected.
    """
    t0 = time.perf_counter()
    report = TamperReport()
    honest = proof.to_bytes()
    if check_tampered_bytes(vk, honest, instance) != "accepted":
        raise AssertionError("honest proof failed its own wire round-trip")

    if include_field_level:
        template = Proof.from_bytes(vk, honest)
        for label, mutate in field_mutators(template):
            victim = Proof.from_bytes(vk, honest)
            mutate(victim)
            report.record(
                f"field:{label}",
                check_tampered_bytes(vk, victim.to_bytes(), instance),
            )

    if include_byte_level:
        for label, mutated in byte_mutations(honest, stride):
            report.record(
                f"bytes:{label}", check_tampered_bytes(vk, mutated, instance)
            )

    report.elapsed_seconds = time.perf_counter() - t0
    return report
