"""Field-arithmetic backends: selection, parity, byte-identical proofs.

The vectorized engines must be *invisible* except for speed: every hook
either declines or returns exactly what the reference loop would have
produced.  These tests pin that contract three ways:

- hypothesis parity of the limb engine's primitive ops against plain
  int arithmetic,
- hook-level parity (NTT, Lagrange basis) between the ``python`` and
  ``numpy`` backends,
- an end-to-end prove under ``deterministic_rng`` whose wire bytes must
  not depend on the backend, with telemetry counter totals equal too.

The engine thresholds (``MIN_NTT`` etc.) are monkeypatched down where
needed so the small circuit sizes used in tests actually route through
the vector code instead of being declined for being too short.
"""

import random
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import PoneglyphDB, ProverConfig, telemetry
from repro.algebra import backend
from repro.algebra.backend import numpy_backend, numpy_limb
from repro.algebra.domain import EvaluationDomain
from repro.algebra.field import (
    BASE_FIELD,
    SCALAR_FIELD,
    deterministic_rng,
    montgomery_batch_inv,
)
from repro.db import ColumnDef, Database, TableSchema
from repro.db.types import INT
from repro.errors import BatchInversionError, ConfigError

NUMPY_OK = numpy_limb.available()
needs_numpy = pytest.mark.skipif(not NUMPY_OK, reason="numpy not installed")

P = SCALAR_FIELD.p

elements = st.integers(min_value=0, max_value=P - 1)


@pytest.fixture()
def small_thresholds(monkeypatch):
    """Route even test-sized vectors through the vector engine."""
    monkeypatch.setattr(numpy_backend, "MIN_NTT", 4)
    monkeypatch.setattr(numpy_backend, "MIN_INV", 4)


class TestSelection:
    def test_default_resolves_to_an_available_backend(self):
        assert backend.backend_name() in backend.available_backends()

    def test_python_always_available(self):
        assert "python" in backend.available_backends()

    def test_set_backend_returns_previous(self):
        previous = backend.set_backend("python")
        try:
            assert backend.backend_name() == "python"
        finally:
            backend.set_backend(previous)

    def test_context_manager_restores(self):
        before = backend.backend_name()
        with backend.backend("python"):
            assert backend.backend_name() == "python"
        assert backend.backend_name() == before

    def test_unknown_name_degrades_to_auto(self):
        """A typo'd REPRO_FIELD_BACKEND must not break anything."""
        with backend.backend("no-such-engine"):
            assert backend.backend_name() in backend.available_backends()

    def test_unavailable_backend_falls_back(self, monkeypatch):
        """Requesting numpy on a host without it degrades down the
        auto chain instead of crashing."""
        monkeypatch.setitem(sys.modules, "numpy", None)
        with backend.backend("numpy"):
            assert backend.backend_name() == "python"

    @needs_numpy
    def test_numpy_not_imported_below_the_thresholds(self):
        """Selecting the numpy backend costs nothing until a hook call
        passes its size threshold: the k <= 7 workloads of the benchmark
        of record never do, and must not pay numpy's import."""
        probe = (
            "import sys\n"
            "from repro.algebra import SCALAR_FIELD as F, backend\n"
            "from repro.algebra.domain import EvaluationDomain\n"
            "backend.set_backend('numpy')\n"
            "assert backend.backend_name() == 'numpy'\n"
            "domain = EvaluationDomain(F, 6)\n"
            "domain.fft(list(range(64)))\n"
            "assert 'numpy' not in sys.modules, 'imported below MIN_NTT'\n"
            "EvaluationDomain(F, 11).fft(list(range(2048)))\n"
            "assert 'numpy' in sys.modules, 'not imported at MIN_NTT'\n"
        )
        subprocess.run([sys.executable, "-c", probe], check=True, timeout=60)

    def test_engines_offer_only_the_ntt_and_lagrange_hooks(self):
        """The field engines accelerate the NTT and the Lagrange basis
        and nothing else: constraint expressions have one evaluator,
        the compiled program."""
        for engine in backend._registry().values():
            hooks = {
                name
                for name in dir(engine)
                if not name.startswith("_")
                and callable(getattr(engine, name))
                and name != "available"
            }
            assert hooks == {"ntt", "lagrange_evals"}, engine.name

    @pytest.mark.parametrize("engine", ["python", "numpy"])
    def test_default_session_keeps_the_process_engine(self, engine):
        """``field_backend="auto"`` (the default) is not a request: the
        session runs on the engine the process selected, e.g. by
        ``REPRO_FIELD_BACKEND``, before, during and after it."""
        with backend.backend(engine):
            selected = backend.backend_name()
            session = PoneglyphDB.open(_make_db(), ProverConfig(k=6, use_cache=False))
            with session:
                assert backend.backend_name() == selected
            assert backend.backend_name() == selected

    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ConfigError):
            ProverConfig(field_backend="cuda")

    def test_config_accepts_known_backends(self):
        for name in ("auto", "python", "numpy"):
            assert ProverConfig(field_backend=name).field_backend == name


@needs_numpy
class TestLimbEngineParity:
    """The limb engine's primitives against plain int arithmetic."""

    @given(a=elements, b=elements)
    @settings(max_examples=30, deadline=None)
    def test_mul_matches_int(self, a, b):
        ctx = numpy_limb.ctx_for(P)
        got = ctx.lower(ctx.mul(ctx.lift([a]), ctx.lift([b])))
        assert got == [a * b % P]

    @given(vals=st.lists(elements, min_size=1, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_lift_lower_roundtrip(self, vals):
        ctx = numpy_limb.ctx_for(P)
        assert ctx.lower(ctx.lift(vals)) == vals

    @given(vals=st.lists(st.integers(1, P - 1), min_size=1, max_size=40))
    @settings(max_examples=20, deadline=None)
    def test_tree_inv_matches_int(self, vals):
        ctx = numpy_limb.ctx_for(P)
        inv = ctx.lower(ctx.tree_inv_arr(ctx.lift(vals)))
        assert all(v * i % P == 1 for v, i in zip(vals, inv))

    def test_tree_inv_zero_raises_typed_error(self):
        ctx = numpy_limb.ctx_for(P)
        with pytest.raises(BatchInversionError) as excinfo:
            ctx.tree_inv_arr(ctx.lift([3, 5, 0, 7]))
        assert excinfo.value.index == 2

    @given(a=elements, b=elements, c=elements)
    @settings(
        max_examples=20,
        deadline=None,
        # the patch is the same for every example
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_add_mul_chain_matches_int(self, monkeypatch, a, b, c):
        """(a*b + c) * (b + c) with non-canonical intermediates, with
        the engine's certified-magnitude self-checks switched on."""
        monkeypatch.setattr(numpy_limb, "_DEBUG", True)
        ctx = numpy_limb.ctx_for(P)
        A, B, C = ctx.lift([a]), ctx.lift([b]), ctx.lift([c])
        got = ctx.lower(ctx.mul(ctx.mul(A, B) + C, B + C))
        assert got == [(a * b + c) * (b + c) % P]

    def test_base_field_supported_too(self):
        ctx = numpy_limb.ctx_for(BASE_FIELD.p)
        assert ctx is not None
        rng = random.Random(5)
        vals = [rng.randrange(BASE_FIELD.p) for _ in range(9)]
        got = ctx.lower(ctx.mul(ctx.lift(vals), ctx.lift(vals)))
        assert got == [v * v % BASE_FIELD.p for v in vals]


@needs_numpy
class TestHookParity:
    def test_ntt_matches_reference(self, monkeypatch):
        monkeypatch.setattr(numpy_limb, "_DEBUG", True)  # twiddle-mul bound
        rng = random.Random(11)
        dom = EvaluationDomain(SCALAR_FIELD, 11)
        vals = [rng.randrange(P) for _ in range(dom.size)]
        with backend.backend("python"):
            ref = dom.fft(vals)
        with backend.backend("numpy"):
            fast = dom.fft(vals)
        assert fast == ref

    def test_fft_round_trip(self):
        rng = random.Random(12)
        dom = EvaluationDomain(SCALAR_FIELD, 11)
        coeffs = [rng.randrange(P) for _ in range(dom.size)]
        with backend.backend("numpy"):
            assert dom.ifft(dom.fft(coeffs)) == coeffs

    def test_coset_fft_matches_reference(self):
        rng = random.Random(13)
        dom = EvaluationDomain(SCALAR_FIELD, 11)
        coeffs = [rng.randrange(P) for _ in range(dom.size)]
        shift = SCALAR_FIELD.multiplicative_generator
        with backend.backend("python"):
            ref = dom.coset_fft(coeffs, shift)
        with backend.backend("numpy"):
            fast = dom.coset_fft(coeffs, shift)
        assert fast == ref

    def test_lagrange_evals_match(self, small_thresholds):
        rng = random.Random(10)
        dom = EvaluationDomain(SCALAR_FIELD, 5)
        for x in [0, 1, P - 1] + [rng.randrange(P) for _ in range(7)]:
            with backend.backend("python"):
                ref = dom.lagrange_basis_evals(x, dom.size)
            with backend.backend("numpy"):
                fast = dom.lagrange_basis_evals(x, dom.size)
            assert fast == ref, f"x={x}"

    def test_lagrange_point_inside_domain(self, small_thresholds):
        """z == 0 short-circuits before any backend dispatch."""
        dom = EvaluationDomain(SCALAR_FIELD, 5)
        inside = pow(dom.omega, 3, P)
        with backend.backend("numpy"):
            evals = dom.lagrange_basis_evals(inside, dom.size)
        assert evals == [1 if i == 3 else 0 for i in range(dom.size)]

    def test_zero_error_index_backend_independent(self):
        for name in ("python", "numpy"):
            with backend.backend(name):
                with pytest.raises(BatchInversionError) as excinfo:
                    montgomery_batch_inv([4, 5, P, 7], P)
            assert excinfo.value.index == 2


def _make_db():
    db = Database()
    db.create_table(
        TableSchema(
            "t",
            [ColumnDef("a", INT), ColumnDef("v", INT)],
            primary_key="a",
        ),
        [(i, 10 * i % 70) for i in range(1, 9)],
    )
    return db


@needs_numpy
class TestEndToEnd:
    def test_proofs_byte_identical_and_counters_equal(
        self, small_thresholds
    ):
        """Same session (so the database-commitment blinding is shared),
        same pinned prover seed: the wire bytes and the telemetry
        counter totals must not depend on the backend."""
        config = ProverConfig(
            k=6,
            limb_bits=4,
            value_bits=16,
            key_bits=16,
            use_cache=False,
            telemetry=True,
        )
        with PoneglyphDB.open(_make_db(), config) as session:
            session.commit()
            results = {}
            for name in ("python", "numpy"):
                with backend.backend(name):
                    telemetry.reset()
                    # Each leg builds its own proving key: the prover's
                    # key memo would serve the second leg warm.
                    session.prover._keys.clear()
                    with deterministic_rng(0xFEED):
                        response = session.prove(
                            "select sum(v) as s from t where v < 50"
                        )
                    counters = telemetry.counters_snapshot()
                    assert session.verify(response).accepted, (
                        f"proof rejected under backend {name}"
                    )
                    results[name] = (response.wire_bytes(), counters)
        assert results["numpy"][0] == results["python"][0]
        # Workload counters (inversions, fft calls/points, msm sizes,
        # ...) are incremented before backend dispatch and must agree
        # exactly.  The fft.twiddle_* pair is plan-cache bookkeeping --
        # the numpy engine keeps its own twiddle tables and bypasses
        # the plan cache -- and msm.fixed_base_table_* says which leg
        # found the process-wide table registry cold (the first one,
        # unless an earlier test warmed it): those may differ.
        def workload(counters):
            return {
                key: value
                for key, value in counters.items()
                if not key.startswith(("fft.twiddle_", "msm.fixed_base_table_"))
            }

        assert workload(results["numpy"][1]) == workload(
            results["python"][1]
        )
        assert results["python"][1]["field.inversions"] > 0
        assert results["python"][1]["fft.calls"] > 0

    def test_session_restores_previous_backend(self):
        before = backend.backend_name()
        config = ProverConfig(k=6, use_cache=False, field_backend="python")
        with PoneglyphDB.open(_make_db(), config):
            assert backend.backend_name() == "python"
        assert backend.backend_name() == before
