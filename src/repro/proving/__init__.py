"""The Halo2-style proving system.

This package turns a PLONKish circuit plus an assignment into a
non-interactive zero-knowledge proof, and verifies such proofs:

1. :mod:`repro.proving.keygen` -- derive the proving key (fixed-column
   polynomials and system selectors) and the verification key (their
   commitments), which ``keygen_vk`` builds alone, without transforms.
2. :mod:`repro.proving.prover` -- the five-round Fiat-Shamir protocol
   as a table of round functions (``ROUNDS``): commit advice; count
   lookup multiplicities (theta); build the shuffle grand products and
   the lookups' helper columns and running sums (beta, gamma); build the quotient polynomial (y); evaluate everything at a
   random point (x); settle every evaluation, whatever its rotation,
   with one IPA opening (:mod:`repro.proving.multiopen`).
3. :mod:`repro.proving.verifier` -- recompute every challenge, check
   the combined constraint identity at x, and check that one opening,
   both its MSMs deferred into a
   :class:`repro.proving.recursion.Accumulator` (the recursive
   proof-composition technique the paper leverages) that one finalize
   settles -- for one proof or for many.

What the two sides must agree on exists once: the proof's sections,
wire codec and transcript order in :mod:`repro.proving.proof`
(``SECTIONS``); the challenges per round, the opening schedule, its
point sets and the constraint identity in :mod:`repro.proving.protocol`;
the opening argument's transcript walk in :mod:`repro.proving.multiopen`.  The verifier
imports nothing from the prover.
"""

from repro.proving.aggregate import AggEntry, AggProof, ScanLinkClaim, aggregate
from repro.proving.keygen import ProvingKey, VerifyingKey, keygen, keygen_vk
from repro.proving.proof import Proof
from repro.proving.prover import create_proof
from repro.proving.recursion import Accumulator
from repro.proving.verifier import verify_proof

__all__ = [
    "keygen",
    "keygen_vk",
    "ProvingKey",
    "VerifyingKey",
    "Proof",
    "create_proof",
    "verify_proof",
    "Accumulator",
    "AggEntry",
    "AggProof",
    "ScanLinkClaim",
    "aggregate",
]
