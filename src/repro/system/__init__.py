"""The PoneglyphDB system roles (paper Figures 2 and 3).

- :class:`~repro.system.prover_node.ProverNode` hosts the private
  database, publishes its commitment, and answers SQL queries with
  results plus non-interactive proofs;
- :class:`~repro.system.verifier_node.VerifierNode` holds only public
  metadata and the database commitment, regenerates the circuit and
  verifying key deterministically, and checks proofs -- one, a batch
  or an aggregate -- settling their expensive checks with one
  recursion-accumulator finalize;
- :func:`~repro.system.audit.audit` is the trusted third party that
  attests the published commitment matches the authentic raw database.
"""

from repro.system.metadata import PublicMetadata, shell_database
from repro.system.prover_node import ProverNode, QueryResponse
from repro.system.verifier_node import (
    AggReport,
    BatchReport,
    VerificationReport,
    VerifierNode,
)
from repro.system.audit import (
    AggregateAuditCertificate,
    audit,
    audit_aggregate,
)

__all__ = [
    "PublicMetadata",
    "shell_database",
    "ProverNode",
    "QueryResponse",
    "AggReport",
    "BatchReport",
    "VerificationReport",
    "VerifierNode",
    "AggregateAuditCertificate",
    "audit",
    "audit_aggregate",
]
