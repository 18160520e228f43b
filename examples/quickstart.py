"""Quickstart: prove and verify a SQL query over a private database.

Runs the complete PoneglyphDB workflow (paper Figure 2) end to end in
about a minute on a laptop, through the `repro.PoneglyphDB` session
facade:

1. the data owner opens a session over a private database (public
   parameters come from the on-disk artifact cache -- the second run
   of this script skips their generation) and publishes the database
   commitment,
2. an auditor attests the commitment matches the authentic data,
3. a client sends a SQL query; the owner answers with the result plus
   a non-interactive zero-knowledge proof,
4. the client verifies the proof against the commitment -- without ever
   seeing a single row of the database.

Run:  python examples/quickstart.py

Knobs (see ProverConfig): ``use_cache=False`` forces cold parameter
and key generation.  To prove many queries in parallel processes, serve
the session (``session.serve(ServiceConfig(workers=N))``; see
examples/proving_service.py).
"""

import time

from repro import PoneglyphDB, ProverConfig
from repro.db import ColumnDef, Database, TableSchema
from repro.db.types import DECIMAL, INT, STRING

# -- 1. the private database (hospital-style scenario from the paper) --
db = Database()
db.create_table(
    TableSchema(
        "patients",
        [
            ColumnDef("p_id", INT),
            ColumnDef("p_region", STRING),
            ColumnDef("p_age", INT),
            ColumnDef("p_cost", DECIMAL),
        ],
        primary_key="p_id",
    ),
    [
        (1, "north", 34, 1250.50),
        (2, "south", 58, 3890.00),
        (3, "north", 45, 760.25),
        (4, "east", 67, 5120.75),
        (5, "south", 29, 310.00),
        (6, "north", 51, 2440.10),
        (7, "east", 72, 6900.00),
        (8, "south", 40, 1105.60),
    ],
)

# 128-row circuits: plenty for this demo.  The reduced bit widths keep
# the pure-Python range checks fast; the paper's full design is 8/64/48.
config = ProverConfig(k=7, limb_bits=4, value_bits=24, key_bits=32)

print("opening session (public parameters via the artifact cache)...")
with PoneglyphDB.open(db, config) as session:
    if session.params_cache_hit:
        print("  parameters loaded from cache")

    # -- 2. commit + audit ----------------------------------------------
    commitment = session.commit()
    print(f"database committed; root = {commitment.root.hex()[:32]}...")
    assert session.audit().valid
    print("auditor attests the commitment matches the authentic database")

    # -- 3. the client's query ------------------------------------------
    sql = (
        "select p_region, count(*) as patients, avg(p_cost) as avg_cost "
        "from patients where p_age >= 40 "
        "group by p_region order by avg_cost desc"
    )
    print(f"\nclient query:\n  {sql}\n")
    t0 = time.time()
    response = session.prove(sql)
    print(f"prover answered in {time.time() - t0:.1f}s "
          f"(proof: {response.proof_size_bytes / 1024:.1f} KB)")
    print("result:")
    for row in response.result:
        print("  ", dict(zip(response.column_names, row)))

    # -- 4. verification -------------------------------------------------
    t0 = time.time()
    report = session.verify(response)
    print(f"\nverifier checked the proof in {time.time() - t0:.1f}s -> "
          f"{'ACCEPTED' if report.accepted else 'REJECTED: ' + report.reason}")
    assert report.accepted

    # A tampered result is rejected.
    import copy

    forged = copy.deepcopy(response)
    forged.result_encoded[0][1] += 1  # inflate a count
    assert not session.verify(forged).accepted
    print("a forged result is rejected -- the answer is cryptographically bound")
    print(f"\nartifact cache this run: {session.cache_summary()}")
