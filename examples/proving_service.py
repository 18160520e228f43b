"""Serving proofs asynchronously: the proving-service workflow.

A hospital consortium (the data owner) runs one committed session and
serves many analyst queries through a worker farm: analysts submit SQL
and poll for progress; the verifying client checks the drained batch
with one amortized accumulator check instead of proof-by-proof.

Run from the repo root:

    PYTHONPATH=src python examples/proving_service.py
"""

import time

from repro import PoneglyphDB, Priority, ProverConfig, ServiceConfig
from repro.db import ColumnDef, Database, TableSchema
from repro.db.types import INT, STRING

db = Database()
db.create_table(
    TableSchema(
        "admissions",
        [
            ColumnDef("id", INT),
            ColumnDef("ward", STRING),
            ColumnDef("los_days", INT),
        ],
        primary_key="id",
    ),
    [
        (1, "cardio", 4),
        (2, "cardio", 11),
        (3, "neuro", 2),
        (4, "neuro", 7),
        (5, "ortho", 3),
        (6, "cardio", 6),
    ],
)

QUERIES = [
    ("select count(*) as n from admissions", Priority.NORMAL),
    ("select sum(los_days) as total from admissions", Priority.NORMAL),
    ("select count(*) as long_stays from admissions where los_days >= 7",
     Priority.HIGH),
]

config = ProverConfig(k=6, limb_bits=4, value_bits=16, key_bits=16,
                      use_cache=False, telemetry=True)
with PoneglyphDB.open(db, config) as session:
    session.commit()
    print("database committed; starting the proving service\n")

    with session.serve(ServiceConfig(workers=2)) as service:
        jobs = [
            (sql, service.submit(sql, priority=priority))
            for sql, priority in QUERIES
        ]

        # Poll like a remote analyst would: queue position, then live
        # prover phase, then the terminal state.
        pending = {job_id for _, job_id in jobs}
        while pending:
            for sql, job_id in jobs:
                if job_id not in pending:
                    continue
                status = service.status(job_id)
                where = (
                    f"queued at position {status.queue_position}"
                    if status.queue_position is not None
                    else status.phase or status.state.value
                )
                print(f"  {job_id}: {where}")
                if status.state.finished:
                    pending.discard(job_id)
            time.sleep(0.5)

        responses = [service.wait(job_id) for _, job_id in jobs]
        print(f"\nall {len(responses)} proofs done "
              f"(stats: {service.stats()['workers']})")

    # The client side: one batched check for the whole drained batch.
    report = session.batch_verify(responses)
    report.require()
    print(
        f"batch of {report.proofs} proofs verified in "
        f"{report.elapsed_seconds:.2f}s "
        f"({report.deferred_openings} openings settled by one "
        f"{report.finalize_seconds:.2f}s check of two MSMs)"
    )
    for (sql, _), response in zip(jobs, responses):
        print(f"  {sql} -> {response.result}")
