"""Finite-field and polynomial algebra substrate.

PoneglyphDB's circuits live over the scalar field of the Pallas curve
(a 255-bit prime field with two-adicity 32, as used by Halo2).  This
package provides:

- :mod:`repro.algebra.field` -- prime-field arithmetic contexts and the
  two Pasta fields (:data:`~repro.algebra.field.SCALAR_FIELD` is the
  circuit field),
- :mod:`repro.algebra.poly` -- Horner evaluation and division by
  ``X - r`` on raw coefficient lists,
- :mod:`repro.algebra.domain` -- radix-2 FFT evaluation domains used by
  the PLONKish prover.

Field elements are plain Python integers in ``[0, p)`` everywhere, and
all operations that need the modulus or cached constants are routed
through a :class:`~repro.algebra.field.Field` context object, which
keeps the prover's inner loops allocation-free.
"""

from repro.algebra.field import (
    BASE_FIELD,
    SCALAR_FIELD,
    Field,
    deterministic_rng,
)
from repro.algebra.domain import EvaluationDomain

__all__ = [
    "BASE_FIELD",
    "SCALAR_FIELD",
    "Field",
    "EvaluationDomain",
    "deterministic_rng",
]
