"""PLONKish arithmetization (paper section 2.2).

A PLONKish circuit is a rectangular matrix of field values with:

- **fixed columns** (circuit constants, committed at keygen),
- **advice columns** (the private witness),
- **instance columns** (public inputs/outputs),
- **polynomial constraints** ("gates") that must vanish on every row,
- **shuffle arguments** asserting two tuple streams are equal as
  multisets, and
- **lookup arguments** asserting input expressions take values present
  in table expressions (the relation behind the paper's range check
  designs; proved by one log-derivative sum per table).

:class:`~repro.plonkish.mock_prover.MockProver` checks all of these
directly against an assignment and reports precise failures; the real
cryptographic pipeline lives in :mod:`repro.proving`.
"""

from repro.plonkish.expression import (
    Expression,
    ColumnQuery,
    Constant,
    Product,
    Scaled,
    Sum,
)
from repro.plonkish.constraint_system import (
    Column,
    ColumnKind,
    ConstraintSystem,
    Gate,
    Lookup,
)
from repro.plonkish.assignment import Assignment
from repro.plonkish.mock_prover import MockProver, VerifyFailure

__all__ = [
    "Expression",
    "ColumnQuery",
    "Constant",
    "Sum",
    "Product",
    "Scaled",
    "Column",
    "ColumnKind",
    "ConstraintSystem",
    "Gate",
    "Lookup",
    "Assignment",
    "MockProver",
    "VerifyFailure",
]
