"""The NTT engine, chosen by size: the gate, parity, byte-identical proofs.

The numpy limb engine must be invisible except for speed: every
transform it takes returns exactly what the plan transform would have.
These tests pin that contract three ways:

- the gate: which path a transform takes for its size and whether
  numpy is installed, and that nothing below ``MIN_NTT`` imports numpy
  (the same probe holds a whole session to the proving stack: no
  OpenSSL, no service),
- hypothesis parity of the limb engine's NTT against the plan
  transform, on both Pasta fields, with its magnitude self-checks on,
- an end-to-end prove under ``deterministic_rng`` whose wire bytes and
  telemetry counter totals must not depend on the path the NTTs took.

``tests.conftest.route_ntt`` moves ``MIN_NTT`` (and hides numpy) so that
the small circuit sizes used in tests reach each path.
"""

import importlib.util
import random
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import PoneglyphDB, ProverConfig, telemetry
from repro.algebra import backend
from repro.algebra.domain import EvaluationDomain, fft_in_place
from repro.algebra.fft_plan import ntt_in_place, plan_for
from repro.algebra.field import BASE_FIELD, SCALAR_FIELD, deterministic_rng
from repro.db import ColumnDef, Database, TableSchema
from repro.db.types import INT
from repro.errors import ConfigError
from tests.conftest import NTT_PATHS, route_ntt

NUMPY_OK = backend.available()
needs_numpy = pytest.mark.skipif(not NUMPY_OK, reason="numpy not installed")
if NUMPY_OK:
    from repro.algebra.backend import numpy_limb

P = SCALAR_FIELD.p

elements = st.integers(min_value=0, max_value=P - 1)


def _plan_ntt(values, field, k):
    """The plan transform of ``values`` over the size-``2^k`` domain."""
    out = list(values)
    ntt_in_place(out, plan_for(1 << k, field.root_of_unity_of_order(1 << k), field.p))
    return out


class TestGate:
    def test_backend_name_says_whether_numpy_is_installed(self, monkeypatch):
        installed = importlib.util.find_spec("numpy") is not None
        assert backend.backend_name() == ("numpy" if installed else "python")
        monkeypatch.setattr(backend, "available", lambda: False)
        assert backend.backend_name() == "python"

    def test_unavailable_engine_falls_back_to_the_plan(self, monkeypatch):
        """On a host without numpy the gate declines at any size, and
        the transform runs on the plan."""
        monkeypatch.setattr(backend, "MIN_NTT", 4)
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert not backend.available()
        assert backend.backend_name() == "python"
        values = list(range(16))
        assert backend.ntt(values, SCALAR_FIELD.root_of_unity_of_order(16), P) is None
        assert EvaluationDomain(SCALAR_FIELD, 4).fft(values) == _plan_ntt(
            values, SCALAR_FIELD, 4
        )

    @needs_numpy
    def test_below_min_ntt_the_gate_declines(self):
        omega = SCALAR_FIELD.root_of_unity_of_order(backend.MIN_NTT // 2)
        half = [1] * (backend.MIN_NTT // 2)
        assert backend.ntt(half, omega, P) is None

    @needs_numpy
    def test_at_min_ntt_the_gate_engages(self):
        """``MIN_NTT`` points are the first size the engine takes, and
        its answer is the plan's."""
        n = backend.MIN_NTT
        rng = random.Random(7)
        values = [rng.randrange(P) for _ in range(n)]
        got = backend.ntt(values, SCALAR_FIELD.root_of_unity_of_order(n), P)
        assert got == _plan_ntt(values, SCALAR_FIELD, n.bit_length() - 1)

    def test_unsupported_modulus_falls_back_to_the_plan(self, monkeypatch):
        """The engine handles sparse primes only: for any other modulus
        the gate declines above the threshold too, and the transform is
        still the DFT."""
        p, n = 97, 16  # 97 = 2^6 + 33, not sparse; 16 divides 96
        omega = pow(5, (p - 1) // n, p)  # 5 generates GF(97)*
        assert pow(omega, n // 2, p) != 1
        monkeypatch.setattr(backend, "MIN_NTT", 4)
        values = list(range(3, 3 + n))
        assert backend.ntt(values, omega, p) is None
        dft = [
            sum(v * pow(omega, i * j, p) for j, v in enumerate(values)) % p
            for i in range(n)
        ]
        fft_in_place(values, omega, p)
        assert values == dft

    def test_the_record_loads_only_the_proving_stack(self):
        """A whole k=6 session -- open, commit, a Q1 prove, verify --
        loads neither OpenSSL (``_hashlib``, which ``hashlib``, ``hmac``
        and ``secrets`` all import) nor the proving service and
        ``multiprocessing``: each would add to ``peak_rss_mb`` on every
        workload of the benchmark of record, and the session uses none
        of it.  Reading ``repro.ProvingService`` loads the service.
        With numpy installed, the session also stays below ``MIN_NTT``,
        so it never pays numpy's import (0.17 s and ~10 MB on
        ``setup_s`` and ``peak_rss_mb``); one ``MIN_NTT``-point
        transform does import it."""
        unloaded = [
            "_hashlib", "hashlib", "hmac", "secrets", "multiprocessing",
            "repro.service",
        ] + (["numpy"] if NUMPY_OK else [])
        probe = (
            "import sys, tempfile\n"
            "import repro\n"
            "from repro import PoneglyphDB, ProverConfig\n"
            "from repro.tpch import QUERIES, generate\n"
            "config = ProverConfig(k=6, limb_bits=4, value_bits=32,\n"
            "    key_bits=40, cache_dir=tempfile.mkdtemp())\n"
            "with PoneglyphDB.open(generate(8, seed=11), config) as s:\n"
            "    s.commit()\n"
            "    assert s.verify(s.prove(QUERIES['Q1'])).accepted\n"
            f"loaded = [m for m in {unloaded!r} if m in sys.modules]\n"
            "assert loaded == [], f'a k=6 session imported {loaded}'\n"
            "repro.ProvingService\n"
            "assert 'repro.service' in sys.modules, 'service not loaded'\n"
        )
        if NUMPY_OK:
            probe += (
                "from repro.algebra import SCALAR_FIELD as F, backend\n"
                "from repro.algebra.domain import fft_in_place\n"
                "n = backend.MIN_NTT\n"
                "fft_in_place(list(range(n)), F.root_of_unity_of_order(n), F.p)\n"
                "assert 'numpy' in sys.modules, 'not imported at MIN_NTT'\n"
            )
        subprocess.run([sys.executable, "-c", probe], check=True, timeout=300)

    def test_the_engine_offers_only_the_ntt(self):
        """No selection API and no second hook: constraint expressions,
        the Lagrange basis and batch inversion run on plain ints."""
        assert set(backend.__all__) == {"MIN_NTT", "available", "backend_name", "ntt"}

    def test_config_rejects_every_engine_name_but_auto(self):
        for name in ("cuda", "python", "numpy", ""):
            with pytest.raises(ConfigError, match="field_backend"):
                ProverConfig(field_backend=name)

    def test_config_accepts_auto(self):
        assert ProverConfig(field_backend="auto").field_backend == "auto"


@needs_numpy
class TestLimbEngineParity:
    """The limb engine's NTT against the plan transform."""

    @given(k=st.integers(2, 7), seed=st.integers(0, 2**32))
    @settings(
        max_examples=20,
        deadline=None,
        # the patch is the same for every example
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_ntt_matches_the_plan(self, monkeypatch, k, seed):
        monkeypatch.setattr(numpy_limb, "_DEBUG", True)  # twiddle-mul bound
        rng = random.Random(seed)
        values = [rng.randrange(P) for _ in range(1 << k)]
        omega = SCALAR_FIELD.root_of_unity_of_order(1 << k)
        got = numpy_limb.ctx_for(P).ntt(values, omega)
        assert got == _plan_ntt(values, SCALAR_FIELD, k)

    @given(vals=st.lists(elements, min_size=1, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_lift_lower_roundtrip(self, vals):
        ctx = numpy_limb.ctx_for(P)
        assert ctx.lower(ctx.lift(vals)) == vals

    @pytest.mark.parametrize("fill", ["top", "alternating"])
    def test_ntt_of_extreme_values(self, monkeypatch, fill):
        """Every limb at its largest canonical value (``p - 1``), and
        ``0`` / ``p - 1`` alternating, through the transposed early
        stages and the natural-layout tail at 2^9 points, with the
        certified-magnitude self-checks switched on."""
        monkeypatch.setattr(numpy_limb, "_DEBUG", True)
        k = 9
        values = [
            P - 1 if fill == "top" or i % 2 else 0 for i in range(1 << k)
        ]
        omega = SCALAR_FIELD.root_of_unity_of_order(1 << k)
        got = numpy_limb.ctx_for(P).ntt(values, omega)
        assert got == _plan_ntt(values, SCALAR_FIELD, k)

    def test_base_field_supported_too(self):
        ctx = numpy_limb.ctx_for(BASE_FIELD.p)
        assert ctx is not None
        rng = random.Random(5)
        k = 8
        values = [rng.randrange(BASE_FIELD.p) for _ in range(1 << k)]
        omega = BASE_FIELD.root_of_unity_of_order(1 << k)
        assert ctx.ntt(values, omega) == _plan_ntt(values, BASE_FIELD, k)


def _on(path, call):
    """``call()`` with every NTT of 4 points or more routed down ``path``."""
    with pytest.MonkeyPatch.context() as patch:
        route_ntt(patch, path)
        return call()


@needs_numpy
class TestGateParity:
    def test_ntt_matches_reference(self, monkeypatch):
        monkeypatch.setattr(numpy_limb, "_DEBUG", True)  # twiddle-mul bound
        rng = random.Random(11)
        dom = EvaluationDomain(SCALAR_FIELD, 11)
        vals = [rng.randrange(P) for _ in range(dom.size)]
        assert _on("engine", lambda: dom.fft(vals)) == _on(
            "plan", lambda: dom.fft(vals)
        )

    def test_fft_round_trip(self):
        rng = random.Random(12)
        dom = EvaluationDomain(SCALAR_FIELD, 11)
        coeffs = [rng.randrange(P) for _ in range(dom.size)]
        assert _on("engine", lambda: dom.ifft(dom.fft(coeffs))) == coeffs

    def test_coset_fft_matches_reference(self):
        rng = random.Random(13)
        dom = EvaluationDomain(SCALAR_FIELD, 11)
        coeffs = [rng.randrange(P) for _ in range(dom.size)]
        shift = SCALAR_FIELD.multiplicative_generator
        assert _on("engine", lambda: dom.coset_fft(coeffs, shift)) == _on(
            "plan", lambda: dom.coset_fft(coeffs, shift)
        )

    def test_coset_round_trip(self):
        rng = random.Random(17)
        dom = EvaluationDomain(SCALAR_FIELD, 11)
        coeffs = [rng.randrange(P) for _ in range(dom.size)]
        shift = SCALAR_FIELD.multiplicative_generator
        assert (
            _on("engine", lambda: dom.coset_ifft(dom.coset_fft(coeffs, shift), shift))
            == coeffs
        )

    def test_ifft_matches_reference(self):
        rng = random.Random(14)
        dom = EvaluationDomain(SCALAR_FIELD, 11)
        evals = [rng.randrange(P) for _ in range(dom.size)]
        assert _on("engine", lambda: dom.ifft(evals)) == _on(
            "plan", lambda: dom.ifft(evals)
        )

    def test_batched_transforms_match_reference(self):
        """``fft_many`` / ``ifft_many`` / ``coset_fft_many``, with short
        inputs zero-padded, at a size below the real threshold."""
        rng = random.Random(15)
        dom = EvaluationDomain(SCALAR_FIELD, 6)
        batch = [
            [rng.randrange(P) for _ in range(length)]
            for length in (dom.size, 9, 1)
        ]
        full = [row + [0] * (dom.size - len(row)) for row in batch]
        shift = SCALAR_FIELD.multiplicative_generator

        def run():
            return (
                dom.fft_many(batch),
                dom.ifft_many(full),
                dom.coset_fft_many(batch, shift),
            )

        assert _on("engine", run) == _on("plan", run)

    def test_base_field_fft_matches_reference(self):
        rng = random.Random(16)
        dom = EvaluationDomain(BASE_FIELD, 10)
        coeffs = [rng.randrange(BASE_FIELD.p) for _ in range(dom.size)]
        assert _on("engine", lambda: dom.fft(coeffs)) == _on(
            "plan", lambda: dom.fft(coeffs)
        )


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


class TestEndToEnd:
    def test_proofs_byte_identical_and_counters_equal(self):
        """Same session (so the database-commitment blinding is shared),
        same pinned prover seed: the wire bytes and the telemetry
        counter totals must not depend on the path the NTTs took."""
        config = ProverConfig(
            k=6,
            limb_bits=4,
            value_bits=16,
            key_bits=16,
            use_cache=False,
            telemetry=True,
        )
        paths = NTT_PATHS if NUMPY_OK else ("plan", "unavailable")
        with PoneglyphDB.open(_make_db(), config) as session:
            session.commit()
            results = {}
            for path in paths:
                with pytest.MonkeyPatch.context() as patch:
                    route_ntt(patch, path)
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
                        f"proof rejected on the {path} path"
                    )
                    results[path] = (response.wire_bytes(), counters)

        # Workload counters (inversions, fft calls/points, msm sizes,
        # ...) are incremented before the gate and must agree exactly.
        # msm.fixed_base_table_* says which leg found the process-wide
        # table registry cold (the first one, unless an earlier test
        # warmed it): those may differ.
        def workload(counters):
            return {
                key: value
                for key, value in counters.items()
                if not key.startswith("msm.fixed_base_table_")
            }

        reference_bytes, reference_counters = results["plan"]
        for path in paths:
            assert results[path][0] == reference_bytes, path
            assert workload(results[path][1]) == workload(reference_counters), path
        assert reference_counters["field.inversions"] > 0
        assert reference_counters["fft.calls"] > 0
