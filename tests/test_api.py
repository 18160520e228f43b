"""The session facade and the consolidated ProverConfig.

These tests pin the public surface: ``PoneglyphDB.open`` drives the
full commit -> prove -> verify -> audit workflow, ``ProverConfig``
validates its knobs, the typed error hierarchy routes every facade
failure, and ``ProverNode`` takes its settings from ``config=`` only.
"""

import dataclasses

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

    def test_replace_revalidates(self):
        """A changed copy is :func:`dataclasses.replace`, which runs the
        same validation as the constructor."""
        config = ProverConfig(k=6)
        assert dataclasses.replace(config, k=7).k == 7
        assert config.k == 6  # frozen original untouched
        with pytest.raises(errors.ConfigError, match="workers"):
            dataclasses.replace(config, workers=-2)


@pytest.mark.parametrize(
    "config_class, names",
    [
        (ProverConfig, {
            "k", "limb_bits", "value_bits", "key_bits", "workers",
            "cache_dir", "use_cache", "telemetry", "field_backend",
        }),
        (ServiceConfig, {
            "workers", "max_queue_depth", "high_priority_reserve",
            "journal_fsync", "max_retries",
            "tenant_quotas", "default_tenant_quota",
        }),
    ],
    ids=["ProverConfig", "ServiceConfig"],
)
def test_config_fields_are_the_settings(config_class, names):
    """Each field is a setting the benchmark sets, a deployment path, a
    safety switch or a behaviour a test switches (``config.py``'s rule);
    a new one is added here on purpose, not by accident."""
    assert {field.name for field in dataclasses.fields(config_class)} == names


#: Every integer field of both configs, with whether ``None`` is a
#: valid value of it.
_NUMERIC_FIELDS = [
    (ProverConfig, name, False)
    for name in ("k", "limb_bits", "value_bits", "key_bits", "workers")
] + [
    (ServiceConfig, name, name.startswith("default_"))
    for name in (
        "workers", "max_queue_depth", "high_priority_reserve",
        "max_retries", "default_tenant_quota",
    )
]


@pytest.mark.parametrize("value", [True, "1", None, 1.5], ids=repr)
@pytest.mark.parametrize(
    "config_class, name, optional", _NUMERIC_FIELDS,
    ids=[f"{cls.__name__}.{name}" for cls, name, _ in _NUMERIC_FIELDS],
)
def test_numeric_fields_reject_wrong_types(config_class, name, optional, value):
    """A bool or a float is not an integer here, and a string or
    ``None`` is a typed ConfigError naming the field, never a bare
    TypeError."""
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
        """A second session over a warm directory builds neither the
        parameters nor their fixed-base tables, and proves the same
        bytes under pinned blinds."""
        from repro import telemetry
        from repro.algebra.field import deterministic_rng
        from repro.ecc import fixed_base

        sql = "select count(*) as n from t"
        previous = telemetry.enable(True)
        try:
            with PoneglyphDB.open(tiny_db, tiny_config) as first:
                assert not first.params_cache_hit  # cold cache
                with deterministic_rng(5):
                    cold = first.prove(sql)
            fixed_base.clear_registry()
            builds = telemetry.counters_snapshot().get(
                "msm.fixed_base_table_builds", 0
            )
            with PoneglyphDB.open(tiny_db, tiny_config) as second:
                assert second.params_cache_hit
                with deterministic_rng(5):
                    warm = second.prove(sql)
                assert second.verify(warm).accepted
                assert second.cache_summary() == "2 hit(s), 0 miss(es)"
            assert telemetry.counters_snapshot().get(
                "msm.fixed_base_table_builds", 0
            ) == builds
        finally:
            telemetry.enable(previous)
        assert warm.wire_bytes() == cold.wire_bytes()

    def test_cache_disabled(self, tiny_db, tmp_path):
        config = ProverConfig(
            k=6, limb_bits=4, value_bits=16, key_bits=16, use_cache=False
        )
        with PoneglyphDB.open(tiny_db, config) as session:
            assert not session.cache.enabled
            assert not session.params_cache_hit

    def test_cache_free_session_writes_into_no_other_sessions_cache(
        self, tiny_db, tiny_config
    ):
        """A session's cache ends with the session: one opened later
        with ``use_cache=False`` (another k, so other tables) writes
        nothing into the directory of a closed session that had one."""
        from repro.ecc import fixed_base

        with PoneglyphDB.open(tiny_db, tiny_config) as cached:
            cached.commit()
        stored = sorted(tiny_config.cache_dir.iterdir())
        fixed_base.clear_registry()
        config = dataclasses.replace(tiny_config, k=5, use_cache=False)
        with PoneglyphDB.open(tiny_db, config) as uncached:
            uncached.commit()
        assert sorted(tiny_config.cache_dir.iterdir()) == stored

    def test_failed_open_restores_global_settings(self, tiny_db):
        """A session whose construction raises leaves no process-global
        setting behind: telemetry is the one it sets."""
        from repro import telemetry
        from repro.commit import setup

        previous = telemetry.enable(False)
        try:
            config = ProverConfig(k=6, telemetry=True, use_cache=False)
            with pytest.raises(errors.ConfigError, match="capacity"):
                PoneglyphDB.open(tiny_db, config, params=setup(4))
            assert not telemetry.enabled()
        finally:
            telemetry.enable(previous)

    @pytest.mark.parametrize("role", ["prover", "verifier"])
    def test_params_off_pallas_rejected(self, tiny_db, tiny_config, role):
        """The circuit field is Pallas's scalar field, so parameters on
        any other curve could only yield proofs the verifier rejects:
        both roles refuse them up front."""
        from repro.commit import setup
        from repro.ecc.curve import VESTA

        vesta = setup(6, VESTA)
        if role == "prover":
            with pytest.raises(errors.ConfigError, match="Pallas"):
                PoneglyphDB.open(tiny_db, tiny_config, params=vesta)
            return
        with PoneglyphDB.open(tiny_db, tiny_config) as session:
            commitment = session.commit()
            metadata = session.prover.public_metadata()
        with pytest.raises(errors.ConfigError, match="Pallas"):
            VerifierNode(vesta, metadata, commitment)

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
        commitment = prover.publish_commitment()
        response = prover.answer("select count(*) as n from t")
        assert len(prover._keys) == 1  # the key lives in the memo only
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
