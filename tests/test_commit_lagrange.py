"""Lagrange-basis commitments: same group elements as the coefficient path.

Columns are committed by their *values* against the Lagrange-basis
generators (``commit_lagrange``); the coefficient path
(``commit_polynomial(ifft(values))``) stays as the oracle.  These tests
pin the equivalence on every scalar-width shape, the basis itself
against ``msm_naive`` and against the Jacobian group FFT it replaced
(with the number of scalar products a cold build makes), the
per-parameter-set table registry (truncated views, distrusted disk
entries, single-flight builds).
"""

import pickle
import random
import threading
import time

import pytest

from repro import telemetry
from repro.algebra import SCALAR_FIELD, backend, fft_plan
from repro.algebra.backend import numpy_backend, numpy_limb
from repro.algebra.domain import EvaluationDomain
from repro.cache import ArtifactCache
from repro.commit import setup
from repro.commit.ipa import (
    commit_lagrange,
    commit_lagrange_many,
    commit_polynomial,
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


def _jacobian_lagrange_bases(params):
    """The group inverse FFT as it ran on Jacobian ``Point`` arithmetic:
    one ``endo_mul`` per nontrivial twiddle, then ``n`` more for ``n^-1``."""
    domain = EvaluationDomain(params.curve.scalar_field, params.k)
    plan = fft_plan.plan_for(domain.size, domain.omega_inv, domain.field.p)
    pts = list(params.g)
    for i, j in plan.swaps:
        pts[i], pts[j] = pts[j], pts[i]
    length = 2
    for ws in plan.stages:
        half = length // 2
        for start in range(0, plan.n, length):
            for i in range(half):
                lo = pts[start + i]
                hi = pts[start + i + half]
                if i:  # ws[0] == 1
                    hi = hi * ws[i]
                pts[start + i] = lo + hi
                pts[start + i + half] = lo - hi
        length *= 2
    return [pt * domain.size_inv for pt in pts]


def _affine(points):
    return [None if pt.is_identity() else pt.to_affine() for pt in points]


def _oracle(params, evals, blind):
    domain = EvaluationDomain(SCALAR_FIELD, params.k)
    padded = list(evals) + [0] * (params.n - len(evals))
    return commit_polynomial(params, domain.ifft(padded), blind)


@pytest.fixture()
def registry_only(monkeypatch):
    """No disk cache behind the table registry."""
    monkeypatch.setattr(fixed_base, "_CACHE", None)


@pytest.fixture()
def counters():
    """Telemetry on; yields a callable reading one counter."""
    previous = telemetry.enable(True)
    yield lambda name: telemetry.counters_snapshot().get(name, 0)
    telemetry.enable(previous)


class TestEquivalence:
    @pytest.mark.parametrize("engine", ["python", "numpy"])
    @pytest.mark.parametrize("k", [3, 5, 6])
    def test_matches_coefficient_path(self, params_k6, k, engine, monkeypatch):
        if engine == "numpy":
            if not numpy_limb.available():
                pytest.skip("numpy not installed")
            monkeypatch.setattr(numpy_backend, "MIN_NTT", 4)
        params = params_k6.truncated(k)
        rng = random.Random(k)
        with backend.backend(engine):
            for shape, evals in _vectors(params.n, rng).items():
                blind = rng.randrange(P)
                assert commit_lagrange(params, evals, blind) == _oracle(
                    params, evals, blind
                ), shape

    def test_batched_matches_single(self, params_k6):
        rng = random.Random(5)
        items = [(v, rng.randrange(P)) for v in _vectors(params_k6.n, rng).values()]
        assert commit_lagrange_many(params_k6, items) == [
            commit_lagrange(params_k6, evals, blind) for evals, blind in items
        ]

    def test_oversized_vector_rejected(self, params_k6):
        with pytest.raises(ValueError):
            commit_lagrange(params_k6, [1] * (params_k6.n + 1), 0)

    def test_narrow_values_stay_narrow(self, params_k6, counters):
        """The point of the exercise: the same column costs far fewer
        bucket insertions as values than as coefficients."""
        rng = random.Random(9)
        evals = _vectors(params_k6.n, rng)["mixed"]
        coeffs = EvaluationDomain(SCALAR_FIELD, 6).ifft(evals)
        before = counters("msm.fixed_base_digits")
        commit_lagrange(params_k6, evals, 1)
        as_values = counters("msm.fixed_base_digits") - before
        commit_polynomial(params_k6, coeffs, 1)
        as_coeffs = counters("msm.fixed_base_digits") - before - as_values
        # 60 one-digit rows + 4 blinding rows + the blind, against 65
        # full-width scalars of ~32 digits each.
        assert as_values <= 60 + 5 * 32
        assert as_coeffs > 8 * as_values


class TestBasis:
    def test_each_generator_is_a_row_of_the_inverse_dft(self):
        params = setup(3)
        domain = EvaluationDomain(SCALAR_FIELD, 3)
        basis = fixed_base.lagrange_bases(params)
        assert len(basis) == params.n
        for j, generator in enumerate(basis):
            row = [
                domain.size_inv * pow(domain.omega_inv, i * j, P) % P
                for i in range(params.n)
            ]
            assert generator == msm_naive(params.g, row).to_affine()

    @pytest.mark.parametrize("k", range(1, 8))
    def test_matches_the_jacobian_group_fft(self, k):
        params = setup(k, label=b"lagrange-fft")
        assert fixed_base.lagrange_bases(params) == _affine(
            _jacobian_lagrange_bases(params)
        )

    def test_matches_the_jacobian_group_fft_on_a_truncated_view(self, params_k6):
        small = params_k6.truncated(4)
        assert fixed_base.lagrange_bases(small) == _affine(
            _jacobian_lagrange_bases(small)
        )

    @pytest.mark.parametrize("k", [3, 7])
    def test_cold_build_scalar_products(self, k, registry_only, counters):
        """One GLV product per nontrivial twiddle with ``n^-1`` folded
        into the last stage: ``(k - 1) * n / 2 + 2`` (386 at k=7, where
        a separate ``n^-1`` pass made 449)."""
        params = setup(k, label=b"cold-products")
        before = counters("msm.glv_splits")
        fixed_base.tables_for_params(params, kind=fixed_base.LAGRANGE)
        assert counters("msm.glv_splits") - before == (k - 1) * params.n // 2 + 2

    def test_table_layout(self, params_k6):
        """Index n is w and n + 1 is u, in both table sets."""
        n = params_k6.n
        for kind in (fixed_base.MONOMIAL, fixed_base.LAGRANGE):
            tables = fixed_base.tables_for_params(params_k6, kind=kind)
            assert len(tables) == n + 2
            got = fixed_base.fixed_base_msm(tables, [3, 5], [n, n + 1])
            assert got == params_k6.w * 3 + params_k6.u * 5


class TestRegistry:
    def test_truncated_params_get_their_own_tables(self, params_k6):
        small = params_k6.truncated(4)
        full = fixed_base.tables_for_params(params_k6, kind=fixed_base.LAGRANGE)
        own = fixed_base.tables_for_params(small, kind=fixed_base.LAGRANGE)
        assert own is not full and len(own) == small.n + 2
        # L_j of the 16-row domain is not a prefix of the 64-row basis.
        assert own.tables[1] != full.tables[1]
        evals = [7] * small.n
        assert commit_lagrange(small, evals, 3) == _oracle(small, evals, 3)

    @pytest.mark.parametrize("kind", [fixed_base.MONOMIAL, fixed_base.LAGRANGE])
    def test_untrustworthy_disk_entry_is_rebuilt(
        self, kind, tmp_path, monkeypatch, counters
    ):
        params = setup(3, label=b"disk-" + kind.encode())
        cache = ArtifactCache(tmp_path)
        monkeypatch.setattr(fixed_base, "_CACHE", cache)
        key = (kind, params.fingerprint(), fixed_base.FIXED_BASE_WINDOW)
        wrong_shape = fixed_base.build_tables(
            params.curve, points_to_affine_tuples(params.g[:2])
        )
        for stale in (b"not a pickle", pickle.dumps("junk"), pickle.dumps(wrong_shape)):
            fixed_base._REGISTRY.pop(key, None)
            cache.put_bytes(fixed_base._disk_key(key), stale)
            before = counters(BUILDS)
            tables = fixed_base.tables_for_params(params, kind=kind)
            assert counters(BUILDS) == before + 1
            assert len(tables) == params.n + 2
        # The rebuild replaced the entry: a cold registry now loads it.
        fixed_base._REGISTRY.pop(key)
        before = counters(BUILDS)
        reloaded = fixed_base.tables_for_params(params, kind=kind)
        assert counters(BUILDS) == before
        assert reloaded.tables == tables.tables

    @pytest.mark.parametrize("kind", [fixed_base.MONOMIAL, fixed_base.LAGRANGE])
    def test_concurrent_cold_lookups_build_once(
        self, kind, registry_only, monkeypatch, counters
    ):
        params = setup(3, label=b"single-flight-" + kind.encode())
        real_build = fixed_base.build_tables

        def slow_build(*args, **kwargs):
            time.sleep(0.05)  # hold the build open for the second thread
            return real_build(*args, **kwargs)

        monkeypatch.setattr(fixed_base, "build_tables", slow_build)
        barrier = threading.Barrier(2)
        results = []

        def worker():
            barrier.wait()
            results.append(fixed_base.tables_for_params(params, kind=kind))

        before = counters(BUILDS)
        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counters(BUILDS) == before + 1
        assert results[0] is results[1]


class TestDatabaseCommitment:
    def test_audit_accepts_the_coefficient_path_commitment(self, params_k6):
        """A commitment published by the coefficient-path code (the
        parent commit's, reproduced here as the oracle) still audits."""
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
