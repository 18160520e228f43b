"""The session facade and the consolidated ProverConfig.

These tests pin the public surface: ``PoneglyphDB.open`` drives the
full commit -> prove -> verify -> audit workflow, ``ProverConfig``
validates its knobs, the typed error hierarchy routes every facade
failure, and ``ProverNode`` takes its settings from ``config=`` only.
"""

import pytest

import repro
from repro import ArtifactCache, PoneglyphDB, ProverConfig, ServiceConfig, Session
from repro import errors
from repro.db import ColumnDef, Database, TableSchema
from repro.db.types import INT, STRING
from repro.system import ProverNode, VerifierNode


@pytest.fixture()
def tiny_db():
    db = Database()
    db.create_table(
        TableSchema(
            "t",
            [ColumnDef("a", INT), ColumnDef("grp", STRING), ColumnDef("v", INT)],
            primary_key="a",
        ),
        [
            (1, "x", 10),
            (2, "y", 20),
            (3, "x", 30),
            (4, "y", 40),
            (5, "x", 50),
        ],
    )
    return db


@pytest.fixture()
def tiny_config(tmp_path):
    return ProverConfig(
        k=6, limb_bits=4, value_bits=16, key_bits=16,
        cache_dir=tmp_path / "cache",
    )


class TestProverConfig:
    def test_defaults(self):
        config = ProverConfig()
        assert config.k == 8 and config.n_rows == 256
        assert config.workers == 0 and config.use_cache

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 1},
            {"k": 99},
            {"k": "7"},
            {"k": 7.0},
            {"limb_bits": 0},
            {"value_bits": -3},
            {"key_bits": "wide"},
            {"limb_bits": 8, "value_bits": 4},
            {"workers": -1},
            {"workers": None},
            {"workers": "2"},
            {"workers": 2.5},
        ],
    )
    def test_validation_rejects(self, kwargs):
        """A typed ConfigError (a ValueError) naming the field, never a
        bare TypeError from a comparison."""
        with pytest.raises(errors.ConfigError, match=next(iter(kwargs))):
            ProverConfig(**kwargs)

    def test_workers_is_serial_only(self):
        """``workers`` takes 0 or 1, both serial; more workers are the
        proving service's, and the error says so."""
        assert ProverConfig(workers=0).workers == 0
        assert ProverConfig(workers=1).workers == 1
        with pytest.raises(errors.ConfigError, match=r"ServiceConfig\(workers=N\)"):
            ProverConfig(workers=2)

    def test_with_options_revalidates(self):
        config = ProverConfig(k=6)
        assert config.with_options(k=7).k == 7
        assert config.k == 6  # frozen original untouched
        with pytest.raises(ValueError):
            config.with_options(workers=-2)


#: Every integer and float field of both configs, with whether ``None``
#: is a valid value of it.
_NUMERIC_FIELDS = [
    (ProverConfig, name, False)
    for name in ("k", "limb_bits", "value_bits", "key_bits", "workers")
] + [
    (ServiceConfig, name, name.startswith("default_"))
    for name in (
        "workers", "max_queue_depth", "high_priority_reserve",
        "event_log_capacity", "error_ring_size", "max_retries",
        "default_tenant_quota", "poll_interval", "shutdown_timeout",
        "retry_backoff_seconds", "retry_backoff_max",
        "default_deadline_seconds", "supervisor_interval",
    )
]


@pytest.mark.parametrize("value", [True, "1", None], ids=repr)
@pytest.mark.parametrize(
    "config_class, name, optional", _NUMERIC_FIELDS,
    ids=[f"{cls.__name__}.{name}" for cls, name, _ in _NUMERIC_FIELDS],
)
def test_numeric_fields_reject_wrong_types(config_class, name, optional, value):
    """A bool is not a number here, and a string or ``None`` is a typed
    ConfigError naming the field, never a bare TypeError."""
    if value is None and optional:
        assert getattr(config_class(**{name: None}), name) is None
        return
    with pytest.raises(errors.ConfigError, match=name):
        config_class(**{name: value})


class TestFacade:
    def test_full_round_trip(self, tiny_db, tiny_config):
        with PoneglyphDB.open(tiny_db, tiny_config) as session:
            assert isinstance(session, Session)
            commitment = session.commit()
            assert session.commitment is commitment
            assert session.audit().valid

            response = session.prove(
                "select grp, sum(v) as total from t group by grp order by total"
            )
            assert response.result == [["y", 60], ["x", 90]]
            report = session.verify(response)
            assert report.accepted, report.reason

            # A forged result is rejected through the same facade.
            import copy

            forged = copy.deepcopy(response)
            forged.result_encoded[0][1] += 1
            assert not session.verify(forged).accepted

    def test_prove_auto_commits(self, tiny_db, tiny_config):
        with PoneglyphDB.open(tiny_db, tiny_config) as session:
            assert session.commitment is None
            response = session.prove("select count(*) as n from t")
            assert session.commitment is not None
            assert session.verify(response).accepted

    def test_second_session_hits_cache(self, tiny_db, tiny_config):
        with PoneglyphDB.open(tiny_db, tiny_config) as first:
            first.prove("select count(*) as n from t")
            assert not first.params_cache_hit  # cold cache
        with PoneglyphDB.open(tiny_db, tiny_config) as second:
            assert second.params_cache_hit
            response = second.prove("select count(*) as n from t")
            assert response.timing.extra.get("keygen_cache_hit") == 1.0
            assert second.verify(response).accepted
            assert "hit" in second.cache_summary()

    def test_cache_disabled(self, tiny_db, tmp_path):
        config = ProverConfig(
            k=6, limb_bits=4, value_bits=16, key_bits=16, use_cache=False
        )
        with PoneglyphDB.open(tiny_db, config) as session:
            assert not session.cache.enabled
            assert not session.params_cache_hit

    def test_failed_open_restores_global_settings(self, tiny_db):
        """A session whose construction raises leaves no process-global
        setting behind: telemetry, field backend."""
        from repro import telemetry
        from repro.algebra import backend
        from repro.commit import setup

        previous = telemetry.enable(False)
        engine = backend.backend_name()
        other = "numpy" if engine == "python" else "python"
        try:
            config = ProverConfig(
                k=6, telemetry=True, use_cache=False, field_backend=other,
            )
            with pytest.raises(errors.ConfigError, match="capacity"):
                PoneglyphDB.open(tiny_db, config, params=setup(4))
            assert not telemetry.enabled()
            assert backend.backend_name() == engine
        finally:
            telemetry.enable(previous)

    def test_shared_params_and_cache(self, tiny_db, tiny_config, tmp_path):
        shared = ArtifactCache(tmp_path / "shared")
        with PoneglyphDB.open(tiny_db, tiny_config, cache=shared) as session:
            assert session.cache is shared
        from repro.commit import setup

        params = setup(6)
        with PoneglyphDB.open(tiny_db, tiny_config, params=params) as session:
            assert session.params is params
            assert not session.params_cache_hit

    def test_commit_refuses_a_database_outside_the_contract(
        self, tiny_db, tiny_config
    ):
        """Circuits are sized on ``value_bits``; a wider cell is refused
        with a typed error naming it, before anything is committed."""
        from repro import ContractError

        tiny_db.table("t").column("v")[3] = 1 << 16
        with PoneglyphDB.open(tiny_db, tiny_config) as session:
            with pytest.raises(ContractError, match=r"t\.v row 3") as err:
                session.commit()
            assert (err.value.value, err.value.bound) == (1 << 16, (1 << 16) - 1)
            assert session.commitment is None
            with pytest.raises(ContractError):
                session.prove("select count(*) as n from t")

    def test_verify_before_commit_raises(self, tiny_db, tiny_config):
        with PoneglyphDB.open(tiny_db, tiny_config) as session:
            with pytest.raises(RuntimeError):
                session.verifier()
            with pytest.raises(RuntimeError):
                session.audit()


class TestRetiredLegacySignature:
    """``config=ProverConfig(...)`` is the only construction path; the
    loose-kwarg ``ProverNode(db, params, k, ...)`` signature fails with
    Python's own TypeError."""

    def test_positional_k_rejected_with_guidance(self, tiny_db, params_k6):
        with pytest.raises(TypeError, match="positional"):
            ProverNode(tiny_db, params_k6, 6)

    def test_missing_config_rejected(self, tiny_db, params_k6):
        with pytest.raises(TypeError, match="config"):
            ProverNode(tiny_db, params_k6)

    def test_config_path_round_trips(self, tiny_db, params_k6):
        config = ProverConfig(
            k=6, limb_bits=4, value_bits=16, key_bits=16, use_cache=False
        )
        prover = ProverNode(tiny_db, params_k6, config=config)
        assert not prover.cache.enabled
        commitment = prover.publish_commitment()
        response = prover.answer("select count(*) as n from t")
        verifier = VerifierNode(params_k6, prover.public_metadata(), commitment)
        assert verifier.verify(response).accepted


class TestErrorHierarchy:
    """Every failure surfaced by the public API is a ReproError, while
    staying catchable by the historical builtin types."""

    def test_config_error_is_value_error(self):
        with pytest.raises(errors.ConfigError):
            ProverConfig(k=1)
        assert issubclass(errors.ConfigError, ValueError)
        assert issubclass(errors.ConfigError, errors.ReproError)

    def test_state_error_before_commit(self, tiny_db, tiny_config):
        with PoneglyphDB.open(tiny_db, tiny_config) as session:
            with pytest.raises(errors.StateError):
                session.verifier()

    def test_wire_format_error_is_value_error(self):
        from repro.wire import WireFormatError

        assert WireFormatError is errors.WireFormatError
        assert issubclass(WireFormatError, ValueError)
        assert issubclass(WireFormatError, errors.ReproError)

    def test_service_errors_subclass_service_error(self):
        for exc in (errors.ServiceOverloaded, errors.ServiceClosed,
                    errors.JobFailed, errors.JobNotFound):
            assert issubclass(exc, errors.ServiceError)
            assert issubclass(exc, errors.ReproError)

    def test_all_errors_reexported_at_top_level(self):
        for name in errors.__all__:
            assert getattr(repro, name) is getattr(errors, name)
