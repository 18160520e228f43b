"""A tour of the paper's custom gates (section 4), at the circuit level.

Builds each gate family directly against the PLONKish constraint
system, assigns the paper's own worked examples (Figure 5's group-by,
Figure 6's join), checks them with the MockProver, and shows a cheating
witness being caught.  Useful as a template for adding new operators.

Run:  python examples/custom_gates_tour.py
"""

from repro.gates import (
    GroupByChip,
    LtFlagChip,
    PkFkJoinChip,
    RangeTable,
    RunningAggChip,
    SortChip,
)
from repro.plonkish import Assignment, ConstraintSystem, MockProver

K = 6  # 64-row circuit, 16-entry range table (4-bit limbs)

# ---------------------------------------------------------------- 4.1
print("== Range check / comparison (Designs C-D) ==")
cs = ConstraintSystem()
table = RangeTable(cs, bits=4)
q = cs.selector("q")
a, b = cs.advice_column("a"), cs.advice_column("b")
lt = LtFlagChip(cs, "lt", q.cur(), a.cur(), b.cur(), table, n_limbs=2)
asg = Assignment(cs, K)
table.assign(asg)
for row, (x, y) in enumerate([(3, 200), (200, 3), (77, 77)]):
    asg.assign(q, row, 1)
    asg.assign(a, row, x)
    asg.assign(b, row, y)
    flag = lt.assign_row(asg, row, x, y)
    print(f"  {x} < {y} -> check bit {flag}")
MockProver(cs, asg).assert_satisfied()
print("  constraints satisfied\n")

# ------------------------------------------------------------- 4.2-4.5
print("== Sort + group-by + SUM (paper Figure 5) ==")
cs = ConstraintSystem()
table = RangeTable(cs, bits=4)
k_col, v_col = cs.advice_column("d1"), cs.advice_column("d2")
valid = cs.advice_column("valid")
sort = SortChip(
    cs, "sort",
    [valid.cur() * k_col.cur(), valid.cur() * v_col.cur(), valid.cur()],
    0, table, n_limbs=2,
)
gb = GroupByChip(cs, "gb", sort.out[0].cur(), sort.out[0].prev())
agg = RunningAggChip(
    cs, "sum", gb.q_first.cur(), gb.q_rest.cur(), gb.same.cur(),
    sort.out[1].cur(),
)
data = [(1, 2), (3, 6), (2, 8), (1, 10)]  # exactly Figure 5's table
asg = Assignment(cs, K)
table.assign(asg)
for i, (key, value) in enumerate(data):
    asg.assign(k_col, i, key)
    asg.assign(v_col, i, value)
    asg.assign(valid, i, 1)
sorted_rows = sort.assign(asg, [(k, v, 1) for k, v in data])
keys = [r[0] for r in sorted_rows]
bins = gb.assign(asg, keys)
same = [0] + [1 if keys[i] == keys[i - 1] else 0 for i in range(1, len(keys))]
running = agg.assign(asg, [r[1] for r in sorted_rows], same)
print("  group sums:", {keys[end]: running[end] for _, end in bins})
MockProver(cs, asg).assert_satisfied()
print("  constraints satisfied (expected {1: 12, 2: 8, 3: 6})\n")

# ---------------------------------------------------------------- 4.4
print("== PK-FK join (paper Figure 6) ==")
cs = ConstraintSystem()
table = RangeTable(cs, bits=4)
fk = cs.advice_column("t1_d1")
t1v = cs.advice_column("t1_valid")
pk, d2 = cs.advice_column("t2_d1"), cs.advice_column("t2_d2")
t2v = cs.advice_column("t2_valid")
join = PkFkJoinChip(
    cs, "join", fk.cur(), t1v.cur(),
    [t2v.cur() * pk.cur(), t2v.cur() * d2.cur()], t2v.cur(),
    table, n_limbs=2,
)
t1 = [1, 3, 6, 1, 6]                      # Figure 6's D1 column
t2 = [(3, 11), (1, 12), (5, 13), (4, 14), (7, 15)]  # (D1', D2')
asg = Assignment(cs, K)
table.assign(asg)
for i, key in enumerate(t1):
    asg.assign(fk, i, key)
    asg.assign(t1v, i, 1)
for i, (key, value) in enumerate(t2):
    asg.assign(pk, i, key)
    asg.assign(d2, i, value)
    asg.assign(t2v, i, 1)
flags = join.assign(asg, [(key, 1) for key in t1], t2)
print("  contribution flags:", flags, "(keys 6 have no partner)")
MockProver(cs, asg).assert_satisfied()
print("  constraints satisfied")

# A cheating prover claiming fk=6 joined is caught.
asg.assign(join.part, 2, 1)
failures = MockProver(cs, asg).verify()
print(f"  cheating witness -> {len(failures)} constraint violations "
      f"(e.g. {failures[0].name})")
assert failures
