"""Content-addressed on-disk cache for expensive proving artifacts.

Public parameters and their fixed-base MSM tables are deterministic
functions of a small description -- ``(curve, k, label)``, the
parameters' fingerprint -- yet regenerating them dominates the setup
time of a cold run (Table 2 of the paper measures parameter generation
alone in minutes).  This module stores such artifacts on disk keyed by
the BLAKE2b hash of their full description, so a second run skips
straight to proving.  Every artifact has a typed codec: the cache
stores bytes, never code.

Keys are content *descriptions*, not content hashes: two runs asking
for the same ``(kind, description)`` get the same file.  Any change to
the description -- a different circuit shape, another seed, a bumped
format version -- lands in a different file, which is the whole
invalidation story.  Writes are atomic (temp file + rename), so a
crashed run never leaves a truncated artifact behind.

Reads are *self-checking*: every stored artifact is framed as
``RCF1 | length:u64-le | payload | blake2b-16(payload)``, and
``get_bytes`` verifies the frame before returning.  A truncated,
bit-flipped, or foreign file is evicted on sight (counted as
``cache.corrupt_evictions``) and reads as a miss, so the builder
recomputes instead of a corrupt artifact reaching the prover -- disk
corruption degrades to a cold start, never to a wrong proof.  Writes
degrade the same way: an artifact that cannot be stored (say, the cache
directory is a regular file) is counted as ``cache.write_errors`` and
simply misses next time.  A payload whose frame is sound but which its
decoder refuses (a foreign or stale artifact stored under this key) is
evicted, counted and logged the same way, then rebuilt.
"""

from __future__ import annotations

import logging
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, TypeVar

from repro import telemetry
from repro.hashing import blake2b

logger = logging.getLogger("repro.cache")

T = TypeVar("T")

#: Bump to invalidate every artifact after a format-affecting change.
#: v2: self-checking frame (magic + length + payload digest) on every
#: stored artifact.
CACHE_FORMAT_VERSION = 2

_ENV_DIR = "REPRO_CACHE_DIR"

#: On-disk artifact frame: magic, u64-le payload length, payload, then
#: a BLAKE2b-16 digest of the payload.
_FRAME_MAGIC = b"RCF1"
_FRAME_DIGEST_SIZE = 16
_FRAME_HEADER_SIZE = len(_FRAME_MAGIC) + 8


def _frame(payload: bytes) -> bytes:
    digest = blake2b(payload, digest_size=_FRAME_DIGEST_SIZE).digest()
    return (
        _FRAME_MAGIC + len(payload).to_bytes(8, "little") + payload + digest
    )


def _unframe(raw: bytes) -> bytes | None:
    """The framed payload, or ``None`` for anything damaged: bad magic,
    wrong length, truncation, or a digest mismatch."""
    if len(raw) < _FRAME_HEADER_SIZE + _FRAME_DIGEST_SIZE:
        return None
    if not raw.startswith(_FRAME_MAGIC):
        return None
    length = int.from_bytes(raw[len(_FRAME_MAGIC):_FRAME_HEADER_SIZE], "little")
    if _FRAME_HEADER_SIZE + length + _FRAME_DIGEST_SIZE != len(raw):
        return None
    payload = raw[_FRAME_HEADER_SIZE:_FRAME_HEADER_SIZE + length]
    digest = raw[_FRAME_HEADER_SIZE + length:]
    expect = blake2b(payload, digest_size=_FRAME_DIGEST_SIZE).digest()
    if digest != expect:
        return None
    return payload


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/poneglyphdb``."""
    env = os.environ.get(_ENV_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "poneglyphdb"


def cache_key(kind: str, *description: object) -> str:
    """The content address: BLAKE2b over kind + canonicalized description."""
    h = blake2b(digest_size=20)
    h.update(f"v{CACHE_FORMAT_VERSION}|{kind}".encode())
    for part in description:
        if isinstance(part, bytes):
            chunk = part
        else:
            chunk = repr(part).encode()
        h.update(b"|" + len(chunk).to_bytes(4, "little") + chunk)
    return f"{kind}-{h.hexdigest()}"


@dataclass
class CacheStats:
    """Hit/miss counters surfaced by the bench harness."""

    hits: int = 0
    misses: int = 0

    def record(self, key: str, hit: bool) -> None:
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        logger.debug("cache %s %s", "HIT" if hit else "MISS", key)

    def summary(self) -> str:
        return f"{self.hits} hit(s), {self.misses} miss(es)"


class ArtifactCache:
    """A directory of content-addressed artifacts.

    ``enabled=False`` turns every lookup into a miss that skips the
    disk entirely -- the builder always runs, nothing is stored.
    """

    def __init__(
        self,
        root: str | os.PathLike[str] | None = None,
        enabled: bool = True,
    ):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.enabled = enabled
        self.stats = CacheStats()

    # -- raw bytes ------------------------------------------------------

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.bin"

    def get_bytes(self, key: str) -> bytes | None:
        if not self.enabled:
            return None
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        payload = _unframe(raw)
        if payload is None:
            # A damaged artifact must never reach a builder's
            # deserializer: evict it and read as a miss so the value
            # is recomputed from scratch.
            self._evict(key, "corrupt frame")
            return None
        return payload

    def put_bytes(self, key: str, data: bytes) -> None:
        """Store ``data`` under ``key``.  A write that fails anywhere --
        creating the directory, the temp file, writing, renaming -- is
        logged and counted as ``cache.write_errors``; the value was
        already built, so the caller goes on and the next read misses."""
        if not self.enabled:
            return
        tmp = None
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            # Atomic publish: never expose a partially written artifact.
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            with os.fdopen(fd, "wb") as handle:
                handle.write(_frame(data))
            os.replace(tmp, self.path_for(key))
        except OSError as exc:
            telemetry.incr("cache.write_errors")
            logger.warning("cache WRITE FAILED %s (%s)", key, exc)
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

    def _evict(self, key: str, reason: str) -> None:
        """Remove a corrupt artifact, counted as
        ``cache.corrupt_evictions`` and logged."""
        try:
            self.path_for(key).unlink()
        except OSError:
            pass
        telemetry.incr("cache.corrupt_evictions")
        logger.warning("cache EVICT %s (%s)", key, reason)

    # -- high-level helpers ---------------------------------------------

    def fetch(
        self,
        kind: str,
        description: tuple,
        build: Callable[[], T],
        serialize: Callable[[T], bytes],
        deserialize: Callable[[bytes], T],
    ) -> tuple[T, bool]:
        """Load the artifact for ``(kind, description)`` or build and
        store it.  Returns ``(value, was_cache_hit)``.

        ``deserialize`` raises ``ValueError`` for a payload it refuses;
        that entry is evicted as corrupt and rebuilt over.
        """
        key = cache_key(kind, *description)
        raw = self.get_bytes(key)
        if raw is not None:
            try:
                value = deserialize(raw)
            except ValueError as exc:
                self._evict(key, f"corrupt payload: {exc}")
            else:
                self.stats.record(key, hit=True)
                return value, True
        value = build()
        self.stats.record(key, hit=False)
        self.put_bytes(key, serialize(value))
        return value, False


def resolve_cache(
    cache: "ArtifactCache | str | os.PathLike[str] | None",
    enabled: bool = True,
) -> ArtifactCache:
    """Coerce the user-facing ``cache_dir``-style argument to a cache."""
    if isinstance(cache, ArtifactCache):
        return cache
    return ArtifactCache(cache, enabled=enabled)
