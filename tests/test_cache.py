"""The artifact cache: round trips, invalidation, loud decode failures,
and the cached builders for public parameters and fixed-base tables.

Invalidation in this design is key derivation: the key embeds the full
artifact description (format version, curve, k, parameter fingerprint),
so any change to the inputs lands in a different file and the stale
artifact is simply never read again.  Every artifact goes through a
typed codec; a payload its decoder refuses is evicted, counted and
logged, then rebuilt.
"""

import json

import pytest

from repro import telemetry
from repro.cache import (
    ArtifactCache,
    CACHE_FORMAT_VERSION,
    cache_key,
    default_cache_dir,
    resolve_cache,
)
from repro.commit.params import PublicParams, cached_setup, cached_tables, setup
from repro.ecc import batch_affine, fixed_base
from repro.ecc.fixed_base import FixedBaseTables
from repro.plonkish.assignment import Assignment
from repro.plonkish.constraint_system import ConstraintSystem
from repro.proving.keygen import keygen, keygen_fingerprint
from tests.msm_oracle import table_bases


@pytest.fixture()
def cache(tmp_path):
    return ArtifactCache(tmp_path / "artifacts")


def fetch_json(cache, kind, description, build):
    """``cache.fetch`` with a JSON codec (the tests' plain artifacts)."""
    return cache.fetch(
        kind, description, build,
        serialize=lambda value: json.dumps(value).encode(),
        deserialize=json.loads,
    )


@pytest.fixture()
def counters():
    """Telemetry on; yields a callable reading one counter."""
    previous = telemetry.enable(True)
    yield lambda name: telemetry.counters_snapshot().get(name, 0)
    telemetry.enable(previous)


class TestArtifactCache:
    def test_round_trip(self, cache):
        calls = []

        def build():
            calls.append(1)
            return {"answer": 42, "items": [1, 2, 3]}

        value1, hit1 = fetch_json(cache, "demo", ("a", 1), build)
        value2, hit2 = fetch_json(cache, "demo", ("a", 1), build)
        assert (hit1, hit2) == (False, True)
        assert value1 == value2
        assert len(calls) == 1  # the second fetch came from disk
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_description_change_invalidates(self, cache):
        fetch_json(cache, "demo", ("a", 1), lambda: "old")
        value, hit = fetch_json(cache, "demo", ("a", 2), lambda: "new")
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
        fetch_json(cache, "demo", ("k",), lambda: [1, 2, 3])
        key = cache_key("demo", "k")
        cache.path_for(key).write_bytes(b"not a frame")
        value, hit = fetch_json(cache, "demo", ("k",), lambda: [1, 2, 3])
        assert not hit and value == [1, 2, 3]
        # And the rebuild repaired the artifact on disk.
        assert json.loads(cache.get_bytes(key)) == [1, 2, 3]

    def test_undecodable_payload_is_evicted_counted_and_logged(
        self, cache, counters, caplog
    ):
        """A sound frame around a payload the decoder refuses is not a
        silent miss: the entry is evicted as corrupt, counted, logged,
        and rebuilt over."""
        key = cache_key("demo", "bad")
        cache.put_bytes(key, b"{not json")
        before = counters("cache.corrupt_evictions")
        with caplog.at_level("WARNING", logger="repro.cache"):
            value, hit = fetch_json(cache, "demo", ("bad",), lambda: [4, 5])
        assert (value, hit) == ([4, 5], False)
        assert counters("cache.corrupt_evictions") == before + 1
        assert any(
            "EVICT" in r.getMessage() and "corrupt payload" in r.getMessage()
            for r in caplog.records
        )
        assert json.loads(cache.get_bytes(key)) == [4, 5]

    def test_bit_flip_detected_and_evicted(self, cache):
        """A single flipped payload bit fails the frame digest: the
        artifact is evicted, counted, and rebuilt -- it never reaches
        the deserializer."""
        fetch_json(cache, "demo", ("flip",), lambda: list(range(64)))
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
        value, hit = fetch_json(cache, "demo", ("flip",), lambda: list(range(64)))
        assert not hit and value == list(range(64))
        assert cache.get_bytes(key) is not None  # repaired

    def test_truncated_artifact_evicted(self, cache):
        fetch_json(cache, "demo", ("trunc",), lambda: "x" * 1000)
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

    def test_unwritable_root_is_counted_and_misses(self, tmp_path):
        """A cache whose root is a regular file cannot store anything:
        every write is logged and counted, ``cached_setup`` and
        ``cached_tables`` still return what they built, and the next
        read is a miss."""
        blocker = tmp_path / "a-file"
        blocker.write_bytes(b"")
        cache = ArtifactCache(blocker)
        was_enabled = telemetry.enable(True)
        try:
            before = telemetry.counters_snapshot().get("cache.write_errors", 0)
            cache.put_bytes("x", b"abc")
            params, hit1 = cached_setup(cache, 2, label=b"unwritable")
            tables, _ = cached_tables(cache, params)
            after = telemetry.counters_snapshot().get("cache.write_errors", 0)
        finally:
            telemetry.enable(was_enabled)
        assert after == before + 3
        assert cache.get_bytes("x") is None
        assert len(tables) == params.n + 3
        again, hit2 = cached_setup(cache, 2, label=b"unwritable")
        assert (hit1, hit2) == (False, False) and again.g == params.g
        assert blocker.read_bytes() == b""

    def test_disabled_cache_never_stores(self, tmp_path):
        cache = ArtifactCache(tmp_path, enabled=False)
        _, hit1 = fetch_json(cache, "demo", (), lambda: 1)
        _, hit2 = fetch_json(cache, "demo", (), lambda: 1)
        assert not hit1 and not hit2
        assert list(tmp_path.iterdir()) == []

    def test_resolve_cache(self, tmp_path):
        """``use_cache=False`` is a disabled cache; a given cache is
        used as it is."""
        off = resolve_cache(tmp_path, enabled=False)
        assert isinstance(off, ArtifactCache) and not off.enabled
        on = ArtifactCache(tmp_path)
        assert resolve_cache(on) is on

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

    def test_garbage_params_entry_is_evicted_and_rebuilt(
        self, cache, counters, caplog
    ):
        """A params entry with a valid frame and a body that is not
        public parameters is evicted, counted, logged and rebuilt."""
        key = cache_key("params", "pallas", 3, b"garbage")
        cache.put_bytes(key, b"\x06pallas\x03" + b"\x01" * 640)  # 10 points
        before = counters("cache.corrupt_evictions")
        with caplog.at_level("WARNING", logger="repro.cache"):
            params, hit = cached_setup(cache, 3, label=b"garbage")
        assert not hit and params.g == setup(3, label=b"garbage").g
        assert counters("cache.corrupt_evictions") == before + 1
        assert any("corrupt payload" in r.getMessage() for r in caplog.records)
        assert PublicParams.from_bytes(cache.get_bytes(key)).g == params.g

    def test_cached_setup_round_trip(self, cache):
        params1, hit1 = cached_setup(cache, 4, label=b"t")
        params2, hit2 = cached_setup(cache, 4, label=b"t")
        assert (hit1, hit2) == (False, True)
        assert params1.g == params2.g and params1.w == params2.w
        # Different k or label = different artifact.
        _, hit3 = cached_setup(cache, 5, label=b"t")
        _, hit4 = cached_setup(cache, 4, label=b"other")
        assert not hit3 and not hit4


class TestKeygenFingerprint:
    def _tiny_cs(self, selector_value=1):
        cs = ConstraintSystem()
        sel = cs.selector("s")
        a = cs.advice_column("a")
        cs.create_gate("square", [sel.cur() * (a.cur() * a.cur() - a.next())])
        return cs

    @staticmethod
    def _fixed(cs, k=4):
        """The fixed columns of ``cs`` with its selector on rows 0..2."""
        asg = Assignment(cs, k)
        for row in range(3):
            asg.assign(cs.fixed_columns[0], row, 1)
        return asg.fixed

    def test_fingerprint_is_stable_and_shape_sensitive(self, params_k6):
        cs1, cs2 = self._tiny_cs(), self._tiny_cs()
        fixed = self._fixed(cs1)
        fp1 = keygen_fingerprint(params_k6, cs1, 4, fixed)
        assert fp1 == keygen_fingerprint(params_k6, cs2, 4, fixed)
        cs2.advice_column("extra")
        assert fp1 != keygen_fingerprint(params_k6, cs2, 4, fixed)
        assert fp1 != keygen_fingerprint(
            params_k6, cs1, 5, self._fixed(cs1, 5)
        )
        # The fixed values are part of the key: one cell changed moves it.
        moved = [list(column) for column in fixed]
        moved[0][3] = 1
        assert fp1 != keygen_fingerprint(params_k6, cs1, 4, moved)

    def test_fingerprint_is_pinned(self, params_k6):
        """Every proof's transcript absorbs the key fingerprint first,
        so its layout -- tag, parameters, circuit-field modulus, ``k``,
        shape, fixed values -- is pinned, not just its sensitivity."""
        cs = self._tiny_cs()
        assert keygen_fingerprint(params_k6, cs, 4, self._fixed(cs)) == (
            "3f7dc465aa08523fcf94b754626eee7917a174b9"
        )

    def test_keygen_is_deterministic(self, params_k6):
        """Keys are rebuilt, never stored: two keygens over the same
        inputs commit to the same columns (fixed-base commitments carry
        no blinding)."""
        cs = self._tiny_cs()
        fixed = self._fixed(cs)
        one = keygen(params_k6, cs, 4, fixed)
        two = keygen(params_k6, cs, 4, fixed)
        assert one.vk.fixed_commitments == two.vk.fixed_commitments
        assert one.vk.system_commitments == two.vk.system_commitments
        assert one.vk.fingerprint == two.vk.fingerprint


class TestCachedTables:
    """The fixed-base table set's typed codec and its check against
    the parameters it claims to derive from."""

    def test_codec_round_trip(self):
        params = setup(3, label=b"codec")
        tables = fixed_base.build_tables(params.curve, table_bases(params))
        data = tables.to_bytes()
        back = FixedBaseTables.from_bytes(data)
        assert (back.curve_name, back.c, back.windows) == (
            tables.curve_name, tables.c, tables.windows
        )
        assert back.tables == tables.tables
        assert back.to_bytes() == data
        assert fixed_base.check_tables(params, back) is back

    @pytest.mark.parametrize("damage", ["off-curve", "non-canonical", "short"])
    def test_from_bytes_refuses_damaged_coordinates(self, damage):
        params = setup(2, label=b"codec")
        tables = fixed_base.build_tables(params.curve, table_bases(params))
        data = bytearray(tables.to_bytes())
        last = len(data) - 64  # the last entry's x || y
        if damage == "off-curve":
            data[last] ^= 1
        elif damage == "non-canonical":
            x = int.from_bytes(data[last : last + 32], "little")
            data[last : last + 32] = (x + params.curve.field.p).to_bytes(
                32, "little"
            )
        else:
            del data[-1]
        with pytest.raises(ValueError):
            FixedBaseTables.from_bytes(bytes(data))


def _full_width_layout(params) -> bytes:
    """The table file of the earlier layout: 32 windows of every base
    covering the whole 255-bit scalar, in the same frame."""
    bases = table_bases(params)
    p, c, windows = params.curve.field.p, 8, 32
    shifted = [bases]
    for _ in range(windows - 1):
        vec = shifted[-1]
        for _ in range(c):
            vec = batch_affine.batch_double(p, vec)
        shifted.append(vec)
    name = params.curve.name.encode()
    out = [bytes([len(name)]), name, bytes([c, windows])]
    out.append(len(bases).to_bytes(4, "little"))
    for i in range(len(bases)):
        for j in range(windows):
            x, y = shifted[j][i]
            out.append(x.to_bytes(32, "little") + y.to_bytes(32, "little"))
    return b"".join(out)


class TestHalfScalarLayout:
    """Only the ``P`` rows are stored; ``phi`` is derived on load, and
    a file of the full-width layout is refused and rebuilt."""

    def test_stored_file_is_half_the_full_width_one(self):
        params = setup(3, label=b"layout")
        old = _full_width_layout(params)
        new = fixed_base.tables_for_params(params).to_bytes()
        header = 1 + len(params.curve.name) + 2 + 4  # name, c, windows, count
        assert old[: header - 5] == new[: header - 5]
        assert (old[header - 5], new[header - 5]) == (32, fixed_base.WINDOWS)
        assert old[header - 4 : header] == new[header - 4 : header]
        assert (len(new) - header) * 2 == len(old) - header

    def test_load_derives_the_phi_rows_the_build_made(self):
        params = setup(3, label=b"layout")
        built = fixed_base.build_tables(params.curve, table_bases(params))
        data = built.to_bytes()
        loaded = FixedBaseTables.from_bytes(data)
        assert loaded.tables == built.tables  # the phi halves included
        assert len(loaded) == params.n + 3
        assert all(len(row) == 2 * fixed_base.WINDOWS for row in loaded.tables)
        assert len(data) == 1 + 6 + 2 + 4 + len(loaded) * fixed_base.WINDOWS * 64

    def test_full_width_file_is_refused_and_rebuilt(self, tmp_path, counters, caplog):
        params = setup(3, label=b"old-layout")
        old = _full_width_layout(params)
        with pytest.raises(ValueError, match="layout"):
            FixedBaseTables.from_bytes(old)
        cache = ArtifactCache(tmp_path)
        description = (params.fingerprint(), fixed_base.FIXED_BASE_WINDOW)
        key = cache_key("fixedbase", *description)
        cache.put_bytes(key, old)
        fixed_base._REGISTRY.pop(description, None)
        evicted = counters("cache.corrupt_evictions")
        builds = counters("msm.fixed_base_table_builds")
        with caplog.at_level("WARNING", logger="repro.cache"):
            tables, hit = cached_tables(cache, params)
        assert not hit
        assert counters("cache.corrupt_evictions") == evicted + 1
        assert counters("msm.fixed_base_table_builds") == builds + 1
        assert any("layout" in r.getMessage() for r in caplog.records)
        assert cache.get_bytes(key) == tables.to_bytes()
