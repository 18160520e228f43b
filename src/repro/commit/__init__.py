"""Polynomial and vector commitments.

PoneglyphDB commits to circuit columns and to the database itself with
the **Inner Product Argument** (IPA) over a 254-bit prime-order group
(paper section 3.2), chosen for (1) linear proving time, (2)
logarithmic proof size / verification recursion, and (3) PLONKish
compatibility.  Public parameters are derived from nothing-up-my-sleeve
hashes -- no trusted setup.
"""

from repro.commit.params import PublicParams, setup
from repro.commit.ipa import (
    IpaProof,
    commit_lagrange,
    commit_polynomial,
    open_polynomial,
    verify_opening,
)

__all__ = [
    "PublicParams",
    "setup",
    "IpaProof",
    "commit_lagrange",
    "commit_polynomial",
    "open_polynomial",
    "verify_opening",
]
