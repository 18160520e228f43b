"""Elliptic-curve substrate: the Pasta curves and multi-scalar multiplication.

PoneglyphDB's commitment scheme (IPA, paper section 3.2) operates over a
254/255-bit prime-order group.  We implement the same curves Halo2 uses:

- **Pallas**: ``y^2 = x^3 + 5`` over ``Fp``, with group order ``q``,
- **Vesta**:  ``y^2 = x^3 + 5`` over ``Fq``, with group order ``p``.

The two orders swap (a "curve cycle"), which is what enables Halo-style
recursive proof composition.
"""

from repro.ecc.curve import Curve, Point, PALLAS, VESTA
from repro.ecc.msm import msm
from repro.ecc.fixed_base import (
    FixedBaseTables,
    build_tables,
    fixed_base_msm,
    tables_for_params,
)
from repro.ecc.glv import curve_endo, decompose

__all__ = [
    "Curve",
    "Point",
    "PALLAS",
    "VESTA",
    "msm",
    "FixedBaseTables",
    "build_tables",
    "fixed_base_msm",
    "tables_for_params",
    "curve_endo",
    "decompose",
]
