"""One day of traffic, one check: the aggregation pipeline end to end.

A prover answers several queries over a committed TPC-H instance and
folds the proofs into a single transportable ``AggProof`` (the ``PDBA``
wire format).  A light client -- or a regulator pinning an audit log --
then settles the whole batch with **one** accumulator finalize -- one
fixed-base and one variable-base MSM -- instead of paying every
proof's two MSMs, which is
the paper's recursive proof-composition story made concrete.

Also shows the failure mode that matters: tampering with any single
proof inside the aggregate rejects the claim, and the verifier
attributes the rejection to the tampered entry.

Run:  python examples/aggregated_verification.py
"""

import copy

from repro import PoneglyphDB, ProverConfig
from repro.proving.aggregate import AggProof
from repro.tpch import generate

QUERIES = [
    "select count(*) as n from nation where n_regionkey >= 2",
    "select count(*) as n from region",
    "select count(*) as n from nation",
]

db = generate(64, seed=11)
config = ProverConfig(k=7, limb_bits=4, value_bits=24, key_bits=16)

with PoneglyphDB.open(db, config) as session:
    session.commit()

    # -- prover side: answer queries, fold the proofs into one claim --
    responses = [session.prove(sql) for sql in QUERIES]
    agg = session.aggregate(responses)
    wire = agg.to_bytes()
    print(f"{agg.proofs} proofs folded into one {len(wire)}-byte PDBA claim")
    print(f"epoch digest (what an audit log pins): {agg.digest().hex()}\n")

    # -- light-client side: decode strictly, verify with one finalize --
    decoded = AggProof.from_bytes(wire)
    assert decoded.to_bytes() == wire  # canonical round-trip
    report = session.verify_aggregate(wire)
    print(
        f"verify_aggregate: accepted={report.accepted} -- "
        f"{report.deferred_openings} openings settled by one "
        f"{report.finalize_seconds * 1e3:.0f}ms finalize (two MSMs)"
    )

    # -- regulator side: attest the epoch by checking one accumulator --
    cert = session.audit_aggregate(wire)
    print(
        f"audit_aggregate:  valid={cert.valid}, {cert.proofs} proofs, "
        f"digest={cert.digest.hex()[:16]}...\n"
    )

    # -- the attack: one tampered proof inside the batch ---------------
    forged = copy.deepcopy(agg)
    flipped = bytearray(forged.entries[1].proof_bytes)
    flipped[-40] ^= 0x01
    forged.entries[1].proof_bytes = bytes(flipped)
    bad = session.verify_aggregate(forged.to_bytes())
    verdicts = [rep.accepted for rep in bad.reports]
    print(f"tampered entry 1: accepted={bad.accepted} ({bad.reason})")
    print(f"attribution: per-entry verdicts {verdicts}")
    assert not bad.accepted and verdicts == [True, False, True]
