"""Pedersen vector commitments.

``commit(v, r) = <v, G> + r * W`` is perfectly hiding (for uniform r)
and computationally binding under the discrete-log assumption.  The IPA
opening argument (:mod:`repro.commit.ipa`) proves statements about the
committed vector without revealing it.
"""

from __future__ import annotations

from typing import Sequence

from repro.commit.params import PublicParams
from repro.ecc import fixed_base
from repro.ecc.curve import Point


def pedersen_commit(
    params: PublicParams, values: Sequence[int], blind: int
) -> Point:
    """Commit to ``values`` (length at most ``params.n``) with blinding
    factor ``blind``.

    The MSM runs against the parameter set's precomputed fixed-base
    tables over ``g`` (the same group element as a generic MSM over
    ``params.g`` and ``params.w``, without the doubling chain -- see
    :mod:`repro.ecc.fixed_base`, which also fixes ``w``'s table index).
    Circuit and database columns do not come through here: they are
    committed by :func:`repro.commit.ipa.commit_lagrange`.
    """
    if len(values) > params.n:
        raise ValueError(
            f"vector of length {len(values)} exceeds params capacity {params.n}"
        )
    tables = fixed_base.tables_for_params(params)
    return fixed_base.fixed_base_msm(
        tables,
        list(values) + [blind],
        indices=list(range(len(values))) + [params.n],
    )
