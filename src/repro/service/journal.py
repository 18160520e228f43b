"""The durable job journal: a crash-safe write-ahead log for the
proving service.

Every job lifecycle transition (``submitted`` -> ``running`` ->
``done`` / ``failed`` / ``cancelled``, plus ``retry`` re-enqueues)
becomes one appended record, so a :class:`~repro.service.ProvingService`
opened on an existing journal can reconstruct exactly which jobs were
accepted and which of them still owe the client a proof.  Because
proofs are byte-deterministic under a pinned ``rng_seed``, recovery is
*exact*: a replayed job must reproduce the very proof bytes whose
digest the journal recorded before the crash (enforced by the worker;
see :class:`~repro.errors.RecoveryMismatch`).

Wire format
-----------

The file starts with the 6-byte magic ``PDBJ1\\n``; each record after
it is a self-checking frame::

    length:u32-le | crc32(payload):u32-le | payload (UTF-8 JSON)

A crash mid-append leaves at most one *torn* final frame (short
header, short payload, or a checksum mismatch running to EOF); replay
tolerates it by stopping at the last intact frame, exactly the
recovery contract of classic WAL designs.  Damage *before* the final
frame -- a checksum failure with more framed data behind it -- cannot
be explained by a torn append and raises
:class:`~repro.errors.JournalCorrupt` instead of silently replaying a
wrong prefix.

Replay (:func:`replay`) folds the record stream into one
:class:`JournaledJob` per job id, which the service turns back into
live jobs: non-terminal jobs (and ``done`` jobs, whose responses only
ever lived in memory) are re-enqueued; ``failed`` / ``cancelled`` jobs
are restored as terminal records so ``status()`` keeps answering for
them.  See DESIGN.md section 5i.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro import telemetry
from repro.errors import JournalCorrupt, JournalError

MAGIC = b"PDBJ1\n"

_HEADER = struct.Struct("<II")

#: Hard sanity bound on one record's payload; a length field beyond it
#: with intact framed data behind is corruption, not a real record.
MAX_RECORD_BYTES = 1 << 24

#: The record types replay understands.  Unknown types are skipped so
#: a newer writer's journal stays replayable by an older reader.
RECORD_TYPES = (
    "submitted", "running", "done", "failed", "cancelled", "retry",
)

#: Job-terminal record types (nothing left to recover for the job).
TERMINAL_RECORDS = ("failed", "cancelled")


def encode_record(record: dict[str, Any]) -> bytes:
    """One framed journal record (header + checksummed JSON payload)."""
    payload = json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def read_records(
    path: str | os.PathLike[str],
) -> tuple[list[dict[str, Any]], int]:
    """Every intact record in ``path``, plus the count of torn tail
    bytes ignored (0 for a cleanly closed journal).

    Missing or empty files read as an empty journal.  Raises
    :class:`~repro.errors.JournalCorrupt` for a bad magic or any
    damaged frame that is *not* the file's final one.
    """
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        return [], 0
    if not data:
        return [], 0
    if len(data) < len(MAGIC) and MAGIC.startswith(data):
        # A crash during journal creation: partial magic, no records.
        return [], len(data)
    if not data.startswith(MAGIC):
        raise JournalCorrupt(
            f"{path}: bad journal magic {data[:6]!r}", offset=0
        )
    records: list[dict[str, Any]] = []
    offset = len(MAGIC)
    size = len(data)
    while offset < size:
        if size - offset < _HEADER.size:
            return records, size - offset  # torn header at EOF
        length, crc = _HEADER.unpack_from(data, offset)
        body_start = offset + _HEADER.size
        if length > MAX_RECORD_BYTES:
            if body_start + length > size:
                return records, size - offset  # giant len, runs past EOF
            raise JournalCorrupt(
                f"{path}: record at offset {offset} claims {length} bytes",
                offset=offset,
            )
        if body_start + length > size:
            return records, size - offset  # torn payload at EOF
        payload = data[body_start:body_start + length]
        end = body_start + length
        if zlib.crc32(payload) != crc:
            if end >= size:
                # Checksum failure running to EOF: the signature of a
                # frame that was being overwritten when the process
                # died.  Tolerated, like a short tail.
                return records, size - offset
            raise JournalCorrupt(
                f"{path}: checksum mismatch at offset {offset} with "
                f"{size - end} intact bytes after it",
                offset=offset,
            )
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise JournalCorrupt(
                f"{path}: undecodable record at offset {offset}: {exc}",
                offset=offset,
            ) from None
        if not isinstance(record, dict):
            raise JournalCorrupt(
                f"{path}: non-object record at offset {offset}",
                offset=offset,
            )
        records.append(record)
        offset = end
    return records, 0


@dataclass
class JournaledJob:
    """The folded final state of one job id after replay."""

    job_id: str
    sql: str = ""
    priority: int = 1
    rng_seed: int | None = None
    tenant: str | None = None
    deadline_seconds: float | None = None
    seq: int = 0
    max_retries: int = 0
    attempts: int = 0
    state: str = "submitted"
    worker: str | None = None
    error: str | None = None
    #: BLAKE2b hex digest of the completed proof's wire bytes, present
    #: once a ``done`` record was appended.
    digest: str | None = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_RECORDS

    @property
    def needs_replay(self) -> bool:
        """Whether the service still owes this job a proof.  ``done``
        jobs count too: their responses only ever lived in memory, so
        recovery re-proves them and checks the recorded digest."""
        return not self.terminal


@dataclass
class JournalReplay:
    """Everything :func:`replay` learned from one journal file."""

    jobs: dict[str, JournaledJob] = field(default_factory=dict)
    records: int = 0
    torn_tail_bytes: int = 0
    max_seq: int = 0

    def pending(self) -> list[JournaledJob]:
        """The jobs recovery must re-enqueue, in submission order."""
        return sorted(
            (job for job in self.jobs.values() if job.needs_replay),
            key=lambda job: job.seq,
        )

    def terminal(self) -> list[JournaledJob]:
        """Jobs that finished for good (failed / cancelled), in
        submission order."""
        return sorted(
            (job for job in self.jobs.values() if job.terminal),
            key=lambda job: job.seq,
        )


def replay(path: str | os.PathLike[str]) -> JournalReplay:
    """Fold the journal at ``path`` into per-job final states."""
    records, torn = read_records(path)
    out = JournalReplay(torn_tail_bytes=torn, records=len(records))
    for record in records:
        rec = record.get("rec")
        job_id = record.get("job")
        if rec not in RECORD_TYPES or not isinstance(job_id, str):
            continue  # forward compatibility: skip unknown shapes
        if rec == "submitted":
            job = JournaledJob(
                job_id=job_id,
                sql=str(record.get("sql", "")),
                priority=int(record.get("priority", 1)),
                rng_seed=record.get("rng_seed"),
                tenant=record.get("tenant"),
                deadline_seconds=record.get("deadline_seconds"),
                seq=int(record.get("seq", 0)),
                max_retries=int(record.get("max_retries", 0)),
            )
            out.jobs[job.job_id] = job
            out.max_seq = max(out.max_seq, job.seq)
            continue
        job = out.jobs.get(job_id)
        if job is None:
            continue  # transition for a job whose submit frame was torn
        if rec == "running":
            job.state = "running"
            job.worker = record.get("worker")
        elif rec == "retry":
            job.state = "retry"
            job.attempts = int(record.get("attempt", job.attempts))
        elif rec == "done":
            job.state = "done"
            job.digest = record.get("digest")
        elif rec == "failed":
            job.state = "failed"
            job.error = record.get("error")
        elif rec == "cancelled":
            job.state = "cancelled"
            job.error = record.get("error")
    return out


class JobJournal:
    """An append-only, checksummed journal of job transitions.

    Thread-safe: workers, the supervisor, and the client-facing
    service surface all append concurrently.  Every append is flushed
    to the OS immediately (surviving a SIGKILL of the process);
    ``fsync=True`` additionally pushes each record to stable storage.
    Append failures after a successful open never raise into the
    proving hot path -- they disable the journal and bump the
    ``service.journal_errors`` counter.
    """

    def __init__(self, path: str | os.PathLike[str], fsync: bool = False):
        self.path = Path(path)
        self.fsync = fsync
        self.write_errors = 0
        self.appended = 0
        self._lock = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        try:
            self._handle = open(self.path, "ab")
            if fresh:
                self._handle.write(MAGIC)
                self._handle.flush()
        except OSError as exc:
            raise JournalError(
                f"cannot open job journal {self.path}: {exc}"
            ) from exc

    def append(self, rec: str, job_id: str, **fields: Any) -> dict[str, Any]:
        """Append one transition record; returns it (or ``{}`` when the
        journal has self-disabled after a write error)."""
        record: dict[str, Any] = {"rec": rec, "job": job_id}
        for key, value in fields.items():
            if value is None or isinstance(value, (str, int, float, bool)):
                record[key] = value
            else:
                record[key] = str(value)
        frame = encode_record(record)
        with self._lock:
            if self._handle is None:
                return {}
            try:
                self._handle.write(frame)
                self._handle.flush()
                if self.fsync:
                    os.fsync(self._handle.fileno())
                self.appended += 1
            except Exception:
                self.write_errors += 1
                telemetry.incr("service.journal_errors")
                try:
                    self._handle.close()
                except Exception:
                    pass
                self._handle = None
                return {}
        return record

    @property
    def active(self) -> bool:
        return self._handle is not None

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                except Exception:
                    pass
                self._handle = None

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __iter__(self) -> Iterator[dict[str, Any]]:
        """The intact records currently on disk (reads the file; safe
        while the journal is open for append)."""
        records, _ = read_records(self.path)
        return iter(records)
