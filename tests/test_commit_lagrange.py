"""Value commitments over the hashed Lagrange generators.

``params.g`` is the Lagrange basis of the size-``n`` domain, so a
column is committed by its *values* (``commit_lagrange``) and data born
as coefficients goes through one FFT first (``commit_polynomial``, or
``commit_polynomials`` for a batch).  These tests pin them against
``msm_naive`` over ``params.g`` on every scalar-width shape, the table
set (layout, no scalar product in a cold build) and the
per-parameter-set registry (truncated views, distrusted disk entries,
single-flight builds).
"""

import random
import threading
import time

import pytest

from repro import telemetry
from repro.algebra import SCALAR_FIELD
from repro.algebra.domain import EvaluationDomain
from repro.cache import ArtifactCache, cache_key
from repro.commit import setup
from repro.commit.params import cached_tables
from repro.commit.ipa import (
    commit_lagrange,
    commit_lagrange_many,
    commit_polynomial,
    commit_polynomials,
)
from repro.db import ColumnDef, Database, TableSchema
from repro.db.commitment import (
    DatabaseCommitment,
    _merkle_root,
    audit_commitment,
    commit_database,
    padded_column,
)
from repro.db.types import DECIMAL, INT
from repro.ecc import fixed_base
from repro.ecc.curve import points_to_affine_tuples
from tests.conftest import NTT_PATHS, route_ntt
from tests.msm_oracle import msm_naive

P = SCALAR_FIELD.p
BUILDS = "msm.fixed_base_table_builds"


def _vectors(n: int, rng: random.Random) -> dict[str, list[int]]:
    """One vector per scalar-width shape a column can have."""
    narrow = [rng.randrange(16) for _ in range(n)]
    wide = [rng.randrange(P) for _ in range(n)]
    return {
        "zero": [0] * n,
        "narrow": narrow,
        "wide": wide,
        # A limb column: 4-bit data, then the full-width blinding rows.
        "mixed": narrow[: n - 4] + wide[n - 4 :],
        "short": narrow[: n // 2],
    }


def _oracle(params, evals, blind):
    """``<evals, g> + blind * w`` by the textbook MSM."""
    return msm_naive([*params.g[: len(evals)], params.w], [*evals, blind])


@pytest.fixture()
def counters():
    """Telemetry on; yields a callable reading one counter."""
    previous = telemetry.enable(True)
    yield lambda name: telemetry.counters_snapshot().get(name, 0)
    telemetry.enable(previous)


class TestEquivalence:
    @pytest.mark.parametrize("path", NTT_PATHS)
    @pytest.mark.parametrize("k", [3, 5, 6])
    def test_matches_coefficient_path(self, params_k6, k, path, monkeypatch):
        """Values, and the coefficients they interpolate through the
        FFT, commit to the naive MSM over ``g``."""
        route_ntt(monkeypatch, path)
        params = params_k6.truncated(k)
        domain = EvaluationDomain(SCALAR_FIELD, k)
        rng = random.Random(k)
        for shape, evals in _vectors(params.n, rng).items():
            blind = rng.randrange(P)
            expected = _oracle(params, evals, blind)
            assert commit_lagrange(params, evals, blind) == expected, shape
            padded = evals + [0] * (params.n - len(evals))
            coeffs = domain.ifft(padded)
            assert commit_polynomial(params, coeffs, blind) == expected, shape

    def test_batched_matches_single(self, params_k6):
        rng = random.Random(5)
        items = [(v, rng.randrange(P)) for v in _vectors(params_k6.n, rng).values()]
        assert commit_lagrange_many(params_k6, items) == [
            commit_lagrange(params_k6, evals, blind) for evals, blind in items
        ]

    def test_oversized_vector_rejected(self, params_k6):
        with pytest.raises(ValueError):
            commit_lagrange(params_k6, [1] * (params_k6.n + 1), 0)
        with pytest.raises(ValueError):
            commit_polynomial(params_k6, [1] * (params_k6.n + 1), 0)

    def test_short_coefficients_are_zero_padded(self, params_k6):
        """Fewer than ``n`` coefficients are the polynomial of that
        degree: its values over the whole domain are committed."""
        rng = random.Random(11)
        domain = EvaluationDomain(SCALAR_FIELD, params_k6.k)
        for length in (1, 3, params_k6.n // 2 + 1):
            coeffs = [rng.randrange(P) for _ in range(length)]
            blind = rng.randrange(P)
            values = domain.fft(coeffs + [0] * (params_k6.n - length))
            assert commit_polynomial(params_k6, coeffs, blind) == _oracle(
                params_k6, values, blind
            ), length

    @pytest.mark.parametrize("path", NTT_PATHS)
    def test_batched_polynomials_match_single(self, params_k6, path, monkeypatch):
        """The quotient pieces' path: one batched FFT, then one value
        commitment each."""
        route_ntt(monkeypatch, path)
        rng = random.Random(13)
        items = [
            ([rng.randrange(P) for _ in range(length)], rng.randrange(P))
            for length in (params_k6.n, 5, 1)
        ]
        assert commit_polynomials(params_k6, items) == [
            commit_polynomial(params_k6, coeffs, blind) for coeffs, blind in items
        ]

    def test_narrow_values_stay_narrow(self, params_k6, counters):
        """The point of committing values: a 4-bit column costs far
        fewer bucket insertions than a full-width one."""
        rng = random.Random(9)
        vectors = _vectors(params_k6.n, rng)
        before = counters("msm.fixed_base_digits")
        commit_lagrange(params_k6, vectors["mixed"], 1)
        narrow = counters("msm.fixed_base_digits") - before
        commit_lagrange(params_k6, vectors["wide"], 1)
        wide = counters("msm.fixed_base_digits") - before - narrow
        # 60 one-digit rows + 4 blinding rows + the blind, against 65
        # full-width scalars of ~32 digits each.
        assert narrow <= 60 + 5 * 32
        assert wide > 8 * narrow


class TestTables:
    @pytest.mark.parametrize("k", [3, 7])
    def test_cold_build_makes_no_scalar_product(self, k, counters):
        """The table set is ``g``, ``w`` and ``u`` doubled: no basis is
        derived, so a cold build makes no GLV product."""
        params = setup(k, label=b"cold-products")
        before = counters("msm.glv_splits"), counters(BUILDS)
        tables = fixed_base.tables_for_params(params)
        assert (counters("msm.glv_splits"), counters(BUILDS)) == (
            before[0], before[1] + 1
        )
        assert [row[0] for row in tables.tables] == points_to_affine_tuples(
            [*params.g, params.w, params.u]
        )

    def test_table_layout(self, params_k6):
        """Index n is w and n + 1 is u."""
        n = params_k6.n
        tables = fixed_base.tables_for_params(params_k6)
        assert len(tables) == n + 2
        got = fixed_base.fixed_base_msm(tables, [3, 5], [n, n + 1])
        assert got == params_k6.w * 3 + params_k6.u * 5


class TestRegistry:
    def test_truncated_params_get_their_own_tables(self, params_k6):
        small = params_k6.truncated(4)
        full = fixed_base.tables_for_params(params_k6)
        own = fixed_base.tables_for_params(small)
        assert own is not full and len(own) == small.n + 2
        # The 16-row basis is the first 16 generators; w and u follow.
        assert own.tables[: small.n] == full.tables[: small.n]
        assert own.tables[small.n] == full.tables[params_k6.n]
        evals = [7] * small.n
        assert commit_lagrange(small, evals, 3) == _oracle(small, evals, 3)

    def test_untrustworthy_disk_entry_is_rebuilt(self, tmp_path, counters, caplog):
        """A stored table set with a sound frame that is not this
        parameter set's -- another set's tables, the wrong base count,
        an altered entry where :func:`check_tables` looks, or no table
        set at all -- is evicted, counted, logged, and rebuilt over."""
        params = setup(3, label=b"disk")
        cache = ArtifactCache(tmp_path)
        key = cache_key(
            "fixedbase", params.fingerprint(), fixed_base.FIXED_BASE_WINDOW
        )
        bases = points_to_affine_tuples([*params.g, params.w, params.u])
        good = fixed_base.build_tables(params.curve, bases)
        foreign = setup(3, label=b"foreign")
        altered = fixed_base.FixedBaseTables.from_bytes(good.to_bytes())
        i, j = fixed_base.spot_positions(params, good.windows)[0]
        x, y = altered.tables[i][j]
        altered.tables[i][j] = (x, params.curve.field.p - y)  # still on the curve
        planted = {
            "foreign": fixed_base.build_tables(
                foreign.curve,
                points_to_affine_tuples([*foreign.g, foreign.w, foreign.u]),
            ).to_bytes(),
            "base count": fixed_base.build_tables(params.curve, bases[:2]).to_bytes(),
            "altered entry": altered.to_bytes(),
            "not tables": b"not a table set",
        }
        registry_key = (params.fingerprint(), fixed_base.FIXED_BASE_WINDOW)
        for name, payload in planted.items():
            fixed_base._REGISTRY.pop(registry_key, None)
            cache.put_bytes(key, payload)
            evicted, built = counters("cache.corrupt_evictions"), counters(BUILDS)
            caplog.clear()
            with caplog.at_level("WARNING", logger="repro.cache"):
                tables, hit = cached_tables(cache, params)
            assert not hit, name
            assert counters("cache.corrupt_evictions") == evicted + 1, name
            assert counters(BUILDS) == built + 1, name
            assert any("EVICT" in r.getMessage() for r in caplog.records), name
            assert tables.tables == good.tables, name
        # The rebuild replaced the entry: a cold registry now loads it.
        fixed_base._REGISTRY.pop(registry_key)
        built = counters(BUILDS)
        reloaded, hit = cached_tables(cache, params)
        assert hit and counters(BUILDS) == built
        assert reloaded.tables == good.tables
        assert fixed_base.tables_for_params(params) is reloaded  # registered
        # A registered set is served without reading the entry.
        cache.put_bytes(key, b"not a table set")
        assert cached_tables(cache, params) == (reloaded, True)

    def test_concurrent_cold_lookups_build_once(self, monkeypatch, counters):
        params = setup(3, label=b"single-flight")
        real_build = fixed_base.build_tables

        def slow_build(*args, **kwargs):
            time.sleep(0.05)  # hold the build open for the second thread
            return real_build(*args, **kwargs)

        monkeypatch.setattr(fixed_base, "build_tables", slow_build)
        barrier = threading.Barrier(2)
        results = []

        def worker():
            barrier.wait()
            results.append(fixed_base.tables_for_params(params))

        before = counters(BUILDS)
        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counters(BUILDS) == before + 1
        assert results[0] is results[1]


class TestDatabaseCommitment:
    def test_audit_accepts_the_naive_msm_commitment(self, params_k6):
        """A commitment whose column points come from the textbook MSM
        over the padded values is byte for byte the published one, and
        audits."""
        db = Database()
        db.create_table(
            TableSchema("t", [ColumnDef("a", INT), ColumnDef("b", DECIMAL)]),
            [(1, 1.5), (2, 2.5), (3, 3.5)],
        )
        k = 5
        commitment, secrets = commit_database(db, params_k6, k)
        fit = params_k6.truncated(k)
        points = {
            key: _oracle(
                fit,
                padded_column(db.tables[key[0]].column(key[1]), k, secret.tail),
                secret.blind,
            )
            for key, secret in secrets.columns.items()
        }
        leaves = [
            table.encode() + b"." + column.encode() + b":" + pt.to_bytes()
            for (table, column), pt in sorted(points.items())
        ]
        published = DatabaseCommitment(k, points, _merkle_root(leaves))
        assert published.to_bytes() == commitment.to_bytes()
        assert audit_commitment(db, published, secrets, params_k6)
