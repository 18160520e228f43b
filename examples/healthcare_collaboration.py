"""The paper's motivating scenario (section 1 and 3.3): a medical
institution X shares verifiable insights with data consumers Y, Z and W
without disclosing raw patient data.

Demonstrates the non-interactive property that motivates PoneglyphDB
over interactive ZKP systems: X generates ONE proof per query; every
consumer verifies the same proof independently, asynchronously, with no
per-verifier interaction -- and ``batch_verify`` settles the expensive
verification work of all the proofs with one folded check.

Run:  python examples/healthcare_collaboration.py
"""

import time

from repro.commit import setup
from repro.db import ColumnDef, Database, TableSchema
from repro.db.types import DATE, INT, STRING
from repro.config import ProverConfig
from repro.system import ProverNode, VerifierNode

# Institution X's private study data.
db = Database()
db.create_table(
    TableSchema(
        "cohort",
        [
            ColumnDef("c_id", INT),
            ColumnDef("c_site", STRING),
            ColumnDef("c_age", INT),
            ColumnDef("c_biomarker", INT),
            ColumnDef("c_enrolled", DATE),
        ],
        primary_key="c_id",
    ),
    [
        (1, "boston", 61, 140, "1995-02-01"),
        (2, "boston", 44, 95, "1995-03-10"),
        (3, "irvine", 57, 180, "1995-01-20"),
        (4, "irvine", 38, 75, "1995-04-02"),
        (5, "austin", 66, 210, "1995-02-14"),
        (6, "boston", 52, 120, "1995-05-05"),
        (7, "austin", 47, 160, "1995-03-30"),
        (8, "irvine", 71, 230, "1995-01-09"),
        (9, "austin", 35, 60, "1995-06-18"),
        (10, "boston", 59, 175, "1995-02-27"),
    ],
)

K = 7
params = setup(K)
institution_x = ProverNode(
    db,
    params,
    config=ProverConfig(
        k=K, limb_bits=4, value_bits=24, key_bits=16, use_cache=False
    ),
)
commitment = institution_x.publish_commitment()
metadata = institution_x.public_metadata()
print("institution X committed its cohort database\n")

# X answers two study queries -- once each.
queries = [
    ("Y: elevated-biomarker counts by site",
     "select c_site, count(*) as n from cohort "
     "where c_biomarker >= 150 group by c_site order by n desc"),
    ("Z: average biomarker among patients 50+",
     "select avg(c_biomarker) as avg_marker, count(*) as n "
     "from cohort where c_age >= 50"),
]
responses = []
for label, sql in queries:
    t0 = time.time()
    response = institution_x.answer(sql)
    responses.append((label, response))
    print(f"proved [{label}] in {time.time() - t0:.1f}s; "
          f"result = {response.result}")

# Three independent consumers verify the SAME proofs -- no interaction
# with X, no shared state, any time later.
print("\nconsumers verify independently (non-interactive, transferable):")
for consumer in ("Y", "Z", "W"):
    verifier = VerifierNode(params, metadata, commitment)
    report = verifier.batch_verify([response for _, response in responses])
    report.require()
    print(f"  consumer {consumer}: both proofs accepted in "
          f"{report.elapsed_seconds:.1f}s "
          f"({report.deferred_openings} openings batched into one check)")

print("\nX's raw cohort never left the institution; every consumer has a "
      "cryptographic guarantee the answers are correct computations over "
      "the audited database.")
