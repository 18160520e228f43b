"""The artifact cache: round trips, invalidation, and the cached
builders for public parameters, proving keys, and TPC-H data.

Invalidation in this design is key derivation: the key embeds the full
artifact description (format version, curve, k, circuit fingerprint,
generator seed), so any change to the inputs lands in a different file
and the stale artifact is simply never read again.
"""

import pickle

import pytest

from repro.algebra import SCALAR_FIELD
from repro.cache import (
    ArtifactCache,
    CACHE_FORMAT_VERSION,
    NullCache,
    cache_key,
    default_cache_dir,
    resolve_cache,
)
from repro.commit.params import PublicParams, cached_setup, setup
from repro.plonkish.assignment import Assignment
from repro.plonkish.constraint_system import ConstraintSystem
from repro.proving.keygen import cached_keygen, keygen, keygen_fingerprint
from repro.tpch.datagen import (
    DATAGEN_VERSION,
    database_digest,
    dataset_fingerprint,
    generate,
    generate_cached,
)


@pytest.fixture()
def cache(tmp_path):
    return ArtifactCache(tmp_path / "artifacts")


class TestArtifactCache:
    def test_round_trip(self, cache):
        calls = []

        def build():
            calls.append(1)
            return {"answer": 42, "items": [1, 2, 3]}

        value1, hit1 = cache.fetch("demo", ("a", 1), build)
        value2, hit2 = cache.fetch("demo", ("a", 1), build)
        assert (hit1, hit2) == (False, True)
        assert value1 == value2
        assert len(calls) == 1  # the second fetch came from disk
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_description_change_invalidates(self, cache):
        cache.fetch("demo", ("a", 1), lambda: "old")
        value, hit = cache.fetch("demo", ("a", 2), lambda: "new")
        assert not hit and value == "new"
        assert cache_key("demo", "a", 1) != cache_key("demo", "a", 2)

    def test_key_embeds_format_version(self):
        key = cache_key("demo", "x")
        # Recompute what the key would be under a bumped format version
        # by checking the version string participates in the hash.
        assert key.startswith("demo-")
        assert f"v{CACHE_FORMAT_VERSION}" is not None
        assert cache_key("demo", "x") == key  # deterministic
        assert cache_key("other", "x") != key

    def test_corrupt_artifact_rebuilds(self, cache):
        cache.fetch("demo", ("k",), lambda: [1, 2, 3])
        key = cache_key("demo", "k")
        cache.path_for(key).write_bytes(b"not a pickle")
        value, hit = cache.fetch("demo", ("k",), lambda: [1, 2, 3])
        assert not hit and value == [1, 2, 3]
        # And the rebuild repaired the artifact on disk.
        assert pickle.loads(cache.get_bytes(key)) == [1, 2, 3]

    def test_bit_flip_detected_and_evicted(self, cache):
        """A single flipped payload bit fails the frame digest: the
        artifact is evicted, counted, and rebuilt -- it never reaches
        the deserializer (which might happily unpickle garbage)."""
        from repro import telemetry

        cache.fetch("demo", ("flip",), lambda: list(range(64)))
        key = cache_key("demo", "flip")
        path = cache.path_for(key)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x40  # flip one bit mid-payload
        path.write_bytes(bytes(raw))
        was_enabled = telemetry.enable(True)
        try:
            before = telemetry.counters_snapshot().get(
                "cache.corrupt_evictions", 0
            )
            assert cache.get_bytes(key) is None
            assert not path.exists()  # evicted on sight
            after = telemetry.counters_snapshot().get(
                "cache.corrupt_evictions", 0
            )
        finally:
            telemetry.enable(was_enabled)
        assert after == before + 1
        value, hit = cache.fetch("demo", ("flip",), lambda: list(range(64)))
        assert not hit and value == list(range(64))
        assert cache.get_bytes(key) is not None  # repaired

    def test_truncated_artifact_evicted(self, cache):
        cache.fetch("demo", ("trunc",), lambda: b"x" * 1000)
        key = cache_key("demo", "trunc")
        path = cache.path_for(key)
        path.write_bytes(path.read_bytes()[:37])
        assert cache.get_bytes(key) is None
        assert not path.exists()

    def test_frame_round_trip_raw_bytes(self, cache):
        cache.put_bytes("raw-key", b"\x00\x01\x02payload")
        assert cache.get_bytes("raw-key") == b"\x00\x01\x02payload"
        # Empty payloads frame fine too.
        cache.put_bytes("empty", b"")
        assert cache.get_bytes("empty") == b""

    def test_unwritable_root_is_counted_and_misses(self, tmp_path, monkeypatch):
        """A cache whose root is a regular file cannot store anything:
        every write is logged and counted, ``cached_setup`` and
        ``tables_for_params`` still return what they built, and the
        next read is a miss."""
        from repro import telemetry
        from repro.ecc import fixed_base

        blocker = tmp_path / "a-file"
        blocker.write_bytes(b"")
        cache = ArtifactCache(blocker)
        monkeypatch.setattr(fixed_base, "_CACHE", cache)
        was_enabled = telemetry.enable(True)
        try:
            before = telemetry.counters_snapshot().get("cache.write_errors", 0)
            cache.put_bytes("x", b"abc")
            params, hit1 = cached_setup(cache, 2, label=b"unwritable")
            tables = fixed_base.tables_for_params(params)
            after = telemetry.counters_snapshot().get("cache.write_errors", 0)
        finally:
            telemetry.enable(was_enabled)
        assert after == before + 3
        assert cache.get_bytes("x") is None
        assert len(tables) == params.n + 2
        again, hit2 = cached_setup(cache, 2, label=b"unwritable")
        assert (hit1, hit2) == (False, False) and again.g == params.g
        assert blocker.read_bytes() == b""

    def test_disabled_cache_never_stores(self, tmp_path):
        cache = ArtifactCache(tmp_path, enabled=False)
        _, hit1 = cache.fetch("demo", (), lambda: 1)
        _, hit2 = cache.fetch("demo", (), lambda: 1)
        assert not hit1 and not hit2
        assert list(tmp_path.iterdir()) == []

    def test_env_disable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert not ArtifactCache(tmp_path).enabled

    def test_clear_by_kind(self, cache):
        cache.fetch("a", (1,), lambda: 1)
        cache.fetch("b", (1,), lambda: 2)
        assert cache.clear("a") == 1
        assert cache.clear() == 1

    def test_null_cache(self):
        null = NullCache()
        assert not null.enabled
        assert resolve_cache(None, enabled=False).enabled is False

    def test_default_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "x"))
        assert default_cache_dir() == tmp_path / "x"


class TestCachedParams:
    def test_params_serialization_round_trip(self):
        params = setup(4, label=b"serde")
        data = params.to_bytes()
        back = PublicParams.from_bytes(data)
        assert back.k == params.k and back.g == params.g
        assert back.w == params.w and back.u == params.u
        assert back.to_bytes() == data

    def test_params_from_bytes_rejects_garbage(self):
        with pytest.raises(ValueError):
            PublicParams.from_bytes(b"\x06pallas\x04" + b"\x00" * 7)

    def test_cached_setup_round_trip(self, cache):
        params1, hit1 = cached_setup(cache, 4, label=b"t")
        params2, hit2 = cached_setup(cache, 4, label=b"t")
        assert (hit1, hit2) == (False, True)
        assert params1.g == params2.g and params1.w == params2.w
        # Different k or label = different artifact.
        _, hit3 = cached_setup(cache, 5, label=b"t")
        _, hit4 = cached_setup(cache, 4, label=b"other")
        assert not hit3 and not hit4


class TestCachedKeygen:
    def _tiny_cs(self, selector_value=1):
        cs = ConstraintSystem()
        sel = cs.selector("s")
        a = cs.advice_column("a")
        cs.create_gate("square", [sel.cur() * (a.cur() * a.cur() - a.next())])
        return cs

    @staticmethod
    def _fixed(cs, k=4):
        """The fixed columns of ``cs`` with its selector on rows 0..2."""
        asg = Assignment(cs, SCALAR_FIELD, k)
        for row in range(3):
            asg.assign(cs.fixed_columns[0], row, 1)
        return asg.fixed

    def test_fingerprint_is_stable_and_shape_sensitive(self, params_k6):
        cs1, cs2 = self._tiny_cs(), self._tiny_cs()
        fixed = self._fixed(cs1)
        fp1 = keygen_fingerprint(params_k6, cs1, SCALAR_FIELD, 4, fixed)
        assert fp1 == keygen_fingerprint(params_k6, cs2, SCALAR_FIELD, 4, fixed)
        cs2.advice_column("extra")
        assert fp1 != keygen_fingerprint(params_k6, cs2, SCALAR_FIELD, 4, fixed)
        assert fp1 != keygen_fingerprint(
            params_k6, cs1, SCALAR_FIELD, 5, self._fixed(cs1, 5)
        )
        # The fixed values are part of the key: one cell changed moves it.
        moved = [list(column) for column in fixed]
        moved[0][3] = 1
        assert fp1 != keygen_fingerprint(params_k6, cs1, SCALAR_FIELD, 4, moved)

    def test_key_without_fixed_part_misses(self, cache, params_k6):
        """A key pickled under the ``v3`` fingerprint -- tag, parameters,
        field, row count and circuit, but no fixed values: a key that
        lacks its fixed columns -- is never loaded."""
        import hashlib

        cs = self._tiny_cs()
        fixed = self._fixed(cs)
        h = hashlib.blake2b(digest_size=20)
        h.update(b"lookup-arguments-v3|")
        h.update(f"{params_k6.curve.name}|{params_k6.k}|{SCALAR_FIELD.p}|4|".encode())
        h.update(params_k6.g[0].to_bytes())
        h.update(cs.fingerprint().encode())
        stale = keygen(params_k6, cs, SCALAR_FIELD, 4, fixed)
        cache.put_bytes(cache_key("pk", h.hexdigest()), pickle.dumps(stale))
        assert cache.fetch("pk", (h.hexdigest(),), lambda: None)[1]
        _, hit = cached_keygen(cache, params_k6, cs, SCALAR_FIELD, 4, fixed)
        assert not hit

    def test_cached_keygen_matches_fresh(self, cache, params_k6):
        cs = self._tiny_cs()
        fixed = self._fixed(cs)
        fresh = keygen(params_k6, cs, SCALAR_FIELD, 4, fixed)
        pk1, hit1 = cached_keygen(cache, params_k6, cs, SCALAR_FIELD, 4, fixed)
        pk2, hit2 = cached_keygen(cache, params_k6, cs, SCALAR_FIELD, 4, fixed)
        assert (hit1, hit2) == (False, True)
        for pk in (pk1, pk2):
            # keygen is deterministic (fixed-base commitments carry no
            # blinding), so the cached key matches a fresh one exactly.
            assert pk.vk.fixed_commitments == fresh.vk.fixed_commitments
            assert pk.vk.sigma_commitments == fresh.vk.sigma_commitments
            assert pk.vk.system_commitments == fresh.vk.system_commitments
        # Each fetch unpickles its own object: the disk cache hands out
        # no shared instance (sharing is the prover's in-memory memo's
        # job, and safe there because keys are immutable).
        assert pk1 is not pk2

    def test_circuit_change_invalidates(self, cache, params_k6):
        cs = self._tiny_cs()
        fixed = self._fixed(cs)
        cached_keygen(cache, params_k6, cs, SCALAR_FIELD, 4, fixed)
        cs.advice_column("extra")
        _, hit = cached_keygen(cache, params_k6, cs, SCALAR_FIELD, 4, fixed)
        assert not hit


class TestCachedTpch:
    def test_fingerprint_depends_on_inputs_only(self):
        assert dataset_fingerprint(16, 1) == dataset_fingerprint(16, 1)
        assert dataset_fingerprint(16, 1) != dataset_fingerprint(16, 2)
        assert dataset_fingerprint(16, 1) != dataset_fingerprint(32, 1)
        assert DATAGEN_VERSION >= 1

    def test_generate_cached_round_trip(self, cache):
        db1, hit1 = generate_cached(16, seed=7, cache=cache)
        db2, hit2 = generate_cached(16, seed=7, cache=cache)
        assert (hit1, hit2) == (False, True)
        assert database_digest(db1) == database_digest(db2)
        assert database_digest(db1) == database_digest(generate(16, seed=7))
        # Different scale regenerates.
        _, hit3 = generate_cached(24, seed=7, cache=cache)
        assert not hit3
