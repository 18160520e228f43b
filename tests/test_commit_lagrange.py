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
from collections import Counter

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
from repro.ecc import fixed_base, glv
from tests.conftest import NTT_PATHS, route_ntt
from tests.msm_oracle import msm_naive, table_bases

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


DIGITS = "msm.fixed_base_digits"


def _scalar_digits(curve, s: int) -> int:
    """Bucket insertions of one scalar on a base that is not the
    identity: its nonzero bytes below ``2^128``, else those of the two
    non-negative GLV halves ``fixed_base_msm`` files it under."""
    s %= P
    if not s >> 128:
        return sum(1 for byte in s.to_bytes(16, "little") if byte)
    endo = glv.curve_endo(curve)
    mid = 1 << 127
    r1, r2 = glv.decompose(endo, (s - (1 + endo.lam) * mid) % P)
    halves = (mid + r1) + ((mid + r2) << 128)
    return sum(1 for byte in halves.to_bytes(32, "little") if byte)


def _offset_of(n: int, evals) -> int:
    """The rule, restated: the most frequent value at or above
    ``2^128`` when its repeats minus one exceed the ``n`` rows' values
    below ``2^128`` (the zero rows past ``evals`` among them), else 0."""
    column = [v % P for v in evals] + [0] * (n - len(evals))
    wide = Counter(v for v in column if v >> 128)
    narrow = sum(1 for v in column if not v >> 128)
    if not wide:
        return 0
    c, repeats = wide.most_common(1)[0]
    return c if repeats - 1 > narrow else 0


def _expected_digits(params, evals, blind) -> int:
    """The digits of ``commit_lagrange(params, evals, blind)``: every
    row's value minus the offset ``c`` on ``g``, the blind on ``w`` and
    ``c`` on ``G_sum``."""
    n = params.n
    c = _offset_of(n, evals)
    rows = [*evals, *[0] * (n - len(evals))]
    return sum(
        _scalar_digits(params.curve, s) for s in [*(v - c for v in rows), blind, c]
    )


class TestOffsetCommit:
    """A column is committed against its most frequent full-width value
    ``c`` as ``<v - c, g> + r * w + c * G_sum`` when ``c``'s repeats
    minus one exceed its narrow values.  Each shape is held to the
    textbook MSM over ``g`` and ``w`` (the element must not change) and
    to the digit count the rule gives (the cost must)."""

    def _check(self, params, evals, counters, shifted: bool) -> int:
        blind = random.Random(len(evals)).randrange(P)
        before = counters(DIGITS)
        got = commit_lagrange(params, evals, blind)
        digits = counters(DIGITS) - before
        assert got == _oracle(params, evals, blind)
        assert bool(_offset_of(params.n, evals)) is shifted
        assert digits == _expected_digits(params, evals, blind)
        return digits

    def test_helper_shaped_column(self, params_k9, counters):
        """A log-derivative helper at k=7: the helper of an all-zero
        input on 118 of 128 rows, a few other wide values, a random
        tail.  It pays for the 10 other rows, the blind and ``c``."""
        params = params_k9.truncated(7)
        rng = random.Random(1)
        mode, others = rng.randrange(P), [rng.randrange(P) for _ in range(3)]
        evals = [mode] * 118 + others * 2 + [rng.randrange(P) for _ in range(4)]
        rng.shuffle(evals)
        digits = self._check(params, evals, counters, shifted=True)
        assert digits <= 12 * 32
        assert 8 * digits < sum(
            _scalar_digits(params.curve, s) for s in evals
        )

    def test_all_equal_column(self, params_k6, counters):
        """One full-width value on every row costs ``c`` alone, plus
        the blind."""
        value = random.Random(2).randrange(1 << 128, P)
        digits = self._check(params_k6, [value] * params_k6.n, counters, True)
        assert digits <= 2 * 32

    @pytest.mark.parametrize("extra, shifted", [(1, False), (2, True)])
    def test_rule_boundary(self, params_k6, counters, extra, shifted):
        """Repeats equal to the narrow values plus one stay unshifted;
        plus two shift.  The 20 narrow values are 12 rows of 4-bit data
        and the 8 zero rows past a 56-row column."""
        rng = random.Random(extra)
        value = rng.randrange(1 << 128, P)
        narrow = [rng.randrange(1, 16) for _ in range(12)]
        evals = narrow + [value] * (20 + extra)
        evals += [rng.randrange(1 << 128, P) for _ in range(56 - len(evals))]
        rng.shuffle(evals)
        self._check(params_k6, evals, counters, shifted)

    def test_narrow_mode_is_never_shifted(self, params_k6, counters):
        """A column whose most frequent value is 7 keeps its one-digit
        rows, though a wide value repeats on 20 of them."""
        rng = random.Random(7)
        evals = [7] * 40 + [rng.randrange(1 << 128, P)] * 20
        evals += [rng.randrange(P) for _ in range(4)]
        digits = self._check(params_k6, evals, counters, shifted=False)
        assert digits < 40 + 25 * 32

    def test_zeros_turn_wide(self, params_k6, counters):
        """Under the offset a zero row costs 32 digits where it cost
        none; 24 of them are worth it against 40 repeats, and counted."""
        rng = random.Random(24)
        value = rng.randrange(1 << 128, P)
        evals = [value] * 40 + [0] * 24
        rng.shuffle(evals)
        digits = self._check(params_k6, evals, counters, shifted=True)
        assert digits > 24 * 30

    def test_truncated_params_sum_their_prefix(self, params_k6, counters):
        """A truncated set's ``G_sum`` is the sum of its own 16 bases, so
        a shifted column under it commits to the textbook element."""
        small = params_k6.truncated(4)
        rng = random.Random(4)
        value = rng.randrange(1 << 128, P)
        evals = [value] * 13 + [rng.randrange(P) for _ in range(3)]
        self._check(small, evals, counters, shifted=True)

    def test_q1_k7_grand_products(self, monkeypatch, counters):
        """The digits of a Q1 k=7 prove's grand-products round are the
        rule's count over the columns that round commits, the offset
        takes away more than a third of the unshifted count, and the
        proof verifies."""
        from repro.plonkish import Assignment
        from repro.proving import create_proof, keygen, prover, verify_proof
        from repro.sql.compiler import QueryCompiler
        from repro.sql.parser import parse
        from repro.sql.planner import Planner
        from repro.tpch import QUERIES, generate

        k = 7
        db = generate(32, seed=1)
        compiled = QueryCompiler(db, k, 4, 32, 40).compile(
            Planner(db).plan(parse(QUERIES["Q1"]))
        )
        asg = Assignment(compiled.cs, k)
        compiled.assign_witness(asg, db)
        pk = keygen(setup(k), compiled.cs, k, asg.fixed)

        committed: list = []
        measured: list[int] = []

        def recording(params, items):
            committed.extend(items)
            return commit_lagrange_many(params, items)

        def grand_products(state):
            before = counters(DIGITS)
            with monkeypatch.context() as patch:
                patch.setattr(prover, "commit_lagrange_many", recording)
                work = prover.grand_products(state)
            measured.append(counters(DIGITS) - before)
            return work

        monkeypatch.setattr(
            prover,
            "ROUNDS",
            tuple(
                (span, name, grand_products if run is prover.grand_products else run)
                for span, name, run in prover.ROUNDS
            ),
        )
        proof = create_proof(pk, asg)
        instance = [
            asg.instance_values(column)[: asg.usable_rows]
            for column in compiled.cs.instance_columns
        ]
        assert verify_proof(pk.vk, proof, instance)
        params = pk.vk.params
        assert len(measured) == 1 and committed
        assert measured[0] == sum(
            _expected_digits(params, evals, blind) for evals, blind in committed
        )
        unshifted = sum(
            _scalar_digits(params.curve, s)
            for evals, blind in committed
            for s in [*evals, blind]
        )
        assert 3 * measured[0] < 2 * unshifted


class TestTables:
    @pytest.mark.parametrize("k", [3, 7])
    def test_cold_build_makes_no_scalar_product(self, k, counters):
        """The table set is ``g``, ``w``, ``u`` and ``G_sum`` doubled:
        no basis is derived and ``G_sum`` is a sum, so a cold build
        makes no GLV product."""
        params = setup(k, label=b"cold-products")
        before = counters("msm.glv_splits"), counters(BUILDS)
        tables = fixed_base.tables_for_params(params)
        assert (counters("msm.glv_splits"), counters(BUILDS)) == (
            before[0], before[1] + 1
        )
        assert [row[0] for row in tables.tables] == table_bases(params)

    def test_table_layout(self, params_k6):
        """Index n is w, n + 1 is u and n + 2 is the sum of g."""
        n = params_k6.n
        tables = fixed_base.tables_for_params(params_k6)
        assert len(tables) == n + fixed_base.TAIL_BASES == n + 3
        got = fixed_base.fixed_base_msm(tables, [3, 5, 2], [n, n + 1, n + 2])
        assert got == msm_naive(
            [params_k6.w, params_k6.u, *params_k6.g], [3, 5, *[2] * n]
        )


class TestRegistry:
    def test_truncated_params_get_their_own_tables(self, params_k6):
        small = params_k6.truncated(4)
        full = fixed_base.tables_for_params(params_k6)
        own = fixed_base.tables_for_params(small)
        assert own is not full and len(own) == small.n + 3
        # The 16-row basis is the first 16 generators; w and u follow,
        # then the sum of those 16 alone.
        assert own.tables[: small.n] == full.tables[: small.n]
        assert own.tables[small.n : small.n + 2] == full.tables[
            params_k6.n : params_k6.n + 2
        ]
        assert [row[0] for row in own.tables] == table_bases(small)
        evals = [7] * small.n
        assert commit_lagrange(small, evals, 3) == _oracle(small, evals, 3)

    def test_warm_lookup_serves_the_registered_set(self, counters):
        """A repeat lookup returns the very set the first one built and
        builds nothing."""
        params = setup(3, label=b"warm-registry")
        first = fixed_base.tables_for_params(params)
        built = counters(BUILDS)
        assert fixed_base.tables_for_params(params) is first
        assert fixed_base.registered(params) is first
        assert counters(BUILDS) == built

    def test_untrustworthy_disk_entry_is_rebuilt(self, tmp_path, counters, caplog):
        """A stored table set with a sound frame that is not this
        parameter set's -- another set's tables, the wrong base count
        (the earlier ``n + 2`` layout without ``G_sum`` among them), an
        altered entry where :func:`check_tables` looks, or no table set
        at all -- is evicted, counted, logged, and rebuilt over."""
        params = setup(3, label=b"disk")
        cache = ArtifactCache(tmp_path)
        key = cache_key(
            "fixedbase", params.fingerprint(), fixed_base.FIXED_BASE_WINDOW
        )
        bases = table_bases(params)
        good = fixed_base.build_tables(params.curve, bases)
        foreign = setup(3, label=b"foreign")
        altered = fixed_base.FixedBaseTables.from_bytes(good.to_bytes())
        i, j = fixed_base.spot_positions(params, good.windows)[0]
        x, y = altered.tables[i][j]
        altered.tables[i][j] = (x, params.curve.field.p - y)  # still on the curve
        planted = {
            "foreign": fixed_base.build_tables(
                foreign.curve, table_bases(foreign)
            ).to_bytes(),
            "base count": fixed_base.build_tables(params.curve, bases[:2]).to_bytes(),
            "no G_sum": fixed_base.build_tables(params.curve, bases[:-1]).to_bytes(),
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
