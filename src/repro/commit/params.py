"""Public parameters for the IPA commitment scheme.

Table 2 of the paper measures exactly this step: deriving ``2^k``
independent group generators (plus two auxiliary bases) whose discrete
logs nobody knows.  Generation uses hash-to-curve on public strings --
"publicly verifiable randomness", no trusted setup -- and is a one-time
cost, reusable for every circuit of at most ``2^k`` rows.

Every generator is a pure function of its index, and the whole set a
pure function of ``(curve, k, label)``, so it is a prime artifact-cache
candidate -- see :func:`cached_setup`, and :func:`cached_tables` for the
fixed-base MSM tables derived from a set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cache import cache_key
from repro.ecc import fixed_base
from repro.ecc.curve import Curve, PALLAS, Point, curve_by_name
from repro.ecc.fixed_base import FixedBaseTables
from repro.hashing import blake2b

if TYPE_CHECKING:  # pragma: no cover
    from repro.cache import ArtifactCache

_DOMAIN = b"poneglyphdb-params-v1"


@dataclass
class PublicParams:
    """IPA commitment bases over a curve.

    Attributes
    ----------
    k:
        log2 of the maximum number of circuit rows supported.
    g:
        ``2^k`` commitment bases, one per row of the size-``2^k``
        evaluation domain: a vector is committed by its values there,
        so ``g`` is read as that domain's Lagrange basis.
    w:
        The blinding base (commitments are Pedersen-hiding).
    u:
        The base binding claimed inner products inside the IPA rounds.
    """

    curve: Curve
    k: int
    g: list[Point] = field(repr=False)
    w: Point = field(repr=False)
    u: Point = field(repr=False)
    #: Lazily computed content hash (see :meth:`fingerprint`); excluded
    #: from equality so a hashed and an unhashed copy still compare.
    _fingerprint: str | None = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        return 1 << self.k

    def fingerprint(self) -> str:
        """Content hash of the canonical serialization.

        Keys everything derived from this exact parameter set -- the
        fixed-base MSM tables in :mod:`repro.ecc.fixed_base` most of
        all.  Computed once and cached on the instance (the bases are
        immutable after construction); a truncated view hashes to a
        different fingerprint than its parent.
        """
        if self._fingerprint is None:
            self._fingerprint = blake2b(
                self.to_bytes(), digest_size=20
            ).hexdigest()
        return self._fingerprint

    def truncated(self, k: int) -> "PublicParams":
        """A view supporting smaller circuits (prefix of the bases).

        The paper notes params are reusable for any circuit whose row
        count does not exceed the maximum; this is that reuse.
        """
        if k > self.k:
            raise ValueError(f"cannot grow params from 2^{self.k} to 2^{k}")
        return PublicParams(self.curve, k, self.g[: 1 << k], self.w, self.u)

    # -- stable wire format (the artifact cache stores this) -------------

    def to_bytes(self) -> bytes:
        """Canonical serialization: curve name, k, then every base in
        uncompressed affine form."""
        name = self.curve.name.encode()
        out = [len(name).to_bytes(1, "little"), name, self.k.to_bytes(1, "little")]
        out.extend(pt.to_bytes() for pt in self.g)
        out.append(self.w.to_bytes())
        out.append(self.u.to_bytes())
        return b"".join(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "PublicParams":
        if not data or len(data) < data[0] + 2:
            raise ValueError("truncated public-parameter header")
        name_len = data[0]
        curve = curve_by_name(data[1 : 1 + name_len].decode())
        k = data[1 + name_len]
        stride = 2 * curve.field._byte_length
        body = data[2 + name_len :]
        n = 1 << k
        if len(body) != (n + 2) * stride:
            raise ValueError("truncated public-parameter encoding")
        points = [
            Point.from_bytes(curve, body[i * stride : (i + 1) * stride])
            for i in range(n + 2)
        ]
        return cls(curve=curve, k=k, g=points[:n], w=points[n], u=points[n + 1])


def setup(k: int, curve: Curve = PALLAS, label: bytes = b"") -> PublicParams:
    """Generate public parameters supporting circuits of ``2^k`` rows.

    Deterministic in ``(k, curve, label)`` so provers and verifiers can
    regenerate identical parameters independently.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    g = [
        curve.hash_to_curve(_DOMAIN, label + b"|g|" + i.to_bytes(8, "little"))
        for i in range(1 << k)
    ]
    w = curve.hash_to_curve(_DOMAIN, label + b"|w")
    u = curve.hash_to_curve(_DOMAIN, label + b"|u")
    return PublicParams(curve=curve, k=k, g=g, w=w, u=u)


def cached_setup(
    cache: "ArtifactCache",
    k: int,
    curve: Curve = PALLAS,
    label: bytes = b"",
) -> tuple[PublicParams, bool]:
    """:func:`setup` through the artifact cache.

    Returns ``(params, was_cache_hit)``.  The key is the full input
    description ``(curve, k, label)``; a hit deserializes the canonical
    byte form and skips every hash-to-curve evaluation.
    """
    return cache.fetch(
        "params",
        (curve.name, k, label),
        build=lambda: setup(k, curve, label),
        serialize=PublicParams.to_bytes,
        deserialize=PublicParams.from_bytes,
    )


def cached_tables(
    cache: "ArtifactCache", params: PublicParams
) -> tuple[FixedBaseTables, bool]:
    """The fixed-base table set of ``params`` through the artifact
    cache, registered in process either way.

    Returns ``(tables, was_cache_hit)``.  The key is the parameter
    fingerprint and the window width.  A set the registry holds is a
    hit that reads nothing once its entry exists (it is written if
    not).  Otherwise a stored set is decoded by
    :meth:`~repro.ecc.fixed_base.FixedBaseTables.from_bytes` and must
    pass :func:`~repro.ecc.fixed_base.check_tables` against ``params``,
    or the cache evicts it and it is built again.
    """
    description = (params.fingerprint(), fixed_base.FIXED_BASE_WINDOW)
    key = cache_key("fixedbase", *description)
    tables = fixed_base.registered(params)
    if tables is not None and cache.path_for(key).exists():
        cache.stats.record(key, hit=True)
        return tables, True
    tables, hit = cache.fetch(
        "fixedbase",
        description,
        build=lambda: fixed_base.tables_for_params(params),
        serialize=FixedBaseTables.to_bytes,
        deserialize=lambda raw: fixed_base.check_tables(
            params, FixedBaseTables.from_bytes(raw)
        ),
    )
    return fixed_base.register(params, tables), hit
