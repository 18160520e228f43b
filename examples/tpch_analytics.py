"""Verifiable TPC-H analytics: the paper's evaluation workload end to
end at laptop scale.

Generates a deterministic TPC-H database, runs a selection of the six
evaluation queries through the full pipeline (parse -> plan -> circuit
-> prove -> verify), and prints the decoded answers with proof sizes.

Run:  python examples/tpch_analytics.py          (fast: mock-checked)
      python examples/tpch_analytics.py --prove  (real proofs; minutes)
"""

import sys
import time

from repro.commit import setup
from repro.plonkish import Assignment, MockProver
from repro.sql.compiler import QueryCompiler
from repro.sql.executor import Executor
from repro.sql.parser import parse
from repro.sql.planner import Planner
from repro.sql.plan import describe
from repro.config import ProverConfig
from repro.system import ProverNode, VerifierNode
from repro.tpch import QUERIES, generate

REAL_PROOFS = "--prove" in sys.argv
LINEITEM_ROWS = 64
K = 8

print(f"generating TPC-H at {LINEITEM_ROWS} lineitem rows...")
db = generate(LINEITEM_ROWS)
print({name: len(t) for name, t in db.tables.items()})

if REAL_PROOFS:
    params = setup(K)
    prover = ProverNode(
        db,
        params,
        config=ProverConfig(
            k=K, limb_bits=4, value_bits=32, key_bits=40, use_cache=False
        ),
    )
    commitment = prover.publish_commitment()
    verifier = VerifierNode(params, prover.public_metadata(), commitment)

planner = Planner(db)
executor = Executor(db)

for name in ("Q1", "Q3", "Q5"):
    sql = QUERIES[name]
    print(f"\n=== TPC-H {name} ===")
    plan = planner.plan(parse(sql))
    print(describe(plan))
    if REAL_PROOFS:
        t0 = time.time()
        response = prover.answer(sql)
        print(f"proved in {time.time() - t0:.0f}s; "
              f"proof {response.proof_size_bytes / 1024:.1f} KB")
        report = verifier.verify(response)
        print("verification:", "ACCEPTED" if report.accepted else report.reason)
        assert report.accepted
        rows = response.result
        headers = response.column_names
    else:
        t0 = time.time()
        compiled = QueryCompiler(db, K, limb_bits=4, value_bits=32,
                                 key_bits=40).compile(plan)
        asg = Assignment(compiled.cs, K)
        encoded = compiled.assign_witness(asg, db)
        MockProver(compiled.cs, asg).assert_satisfied()
        print(f"circuit satisfied in {time.time() - t0:.1f}s "
              f"({len(compiled.cs.advice_columns)} advice columns, "
              f"{len(compiled.cs.lookups)} lookups)")
        rows = encoded
        headers = [m.name for m in compiled.outputs]
    print("result rows:")
    for row in rows[:5]:
        print("  ", dict(zip(headers, row)))
    if len(rows) > 5:
        print(f"   ... and {len(rows) - 5} more")
