"""The join gate (paper section 4.4).

The PK-FK inner join ``T1.fk = T2.pk`` is proven through the paper's
three properties:

1. **Equality verification** -- every contributing T1 row carries a
   matched copy of its T2 partner, with the polynomial constraint
   ``r.attr1 - r.attr2 = 0``.
2. **Source verification** -- matched tuples are looked up in T2 (so a
   prover cannot invent partners).
3. **Completeness / exclusivity** -- non-contributing T1 rows prove
   their foreign key appears in *no* T2 row, through the paper's
   deduplicated sorted-merge: a single sorted column ``S`` receives
   (deduplicated) non-contributing foreign keys tagged 1 and all
   primary keys tagged 2; lookups force every source value into ``S``,
   sortedness makes equal values adjacent, and an adjacency constraint
   forbids equal neighbours with different tags -- hence no foreign key
   can equal a primary key.

Layout note: the paper reorders ``T1`` into contributing /
non-contributing halves (``T1'_p`` / ``T1'_non-p``).  Because this
implementation carries ZKSQL-style dummy tuples end to end (paper
section 3.4), the partition is represented *in place* by the boolean
``part`` column; the reordering shuffle is subsumed by the final
compaction shuffle of the query output.  The constraint census is the
same, and the layout stays oblivious.

Value encoding contract: join keys and validity-gated values are
nonzero (the database encoding layer guarantees codes >= 1), so the
all-zero tuple is reserved for padding rows.
"""

from __future__ import annotations

from typing import Sequence

from repro.gates.compare import AssertLeChip, IsZeroChip
from repro.gates.tables import RangeTable
from repro.plonkish.assignment import Assignment
from repro.plonkish.constraint_system import Column, ConstraintSystem
from repro.plonkish.expression import Constant, Expression


class DisjointChip:
    """Prove ``{a values where a_flag} ∩ {b values where b_flag} = ∅``.

    The sorted-merge-with-tags construction described in the module
    docstring.  Values must be >= 1; the number of distinct flagged
    ``a`` values plus flagged ``b`` rows must leave at least one padding
    row in the circuit.
    """

    TAG_A = 1
    TAG_B = 2

    def __init__(
        self,
        cs: ConstraintSystem,
        name: str,
        a_value: Expression,
        a_flag: Expression,
        b_value: Expression,
        b_flag: Expression,
        table: RangeTable,
        n_limbs: int = 8,
    ):
        self.s: Column = cs.advice_column(f"{name}.s")
        self.tag: Column = cs.advice_column(f"{name}.tag")
        #: sortedness selector: 1 on rows 0 .. usable-2.
        self.q_sort: Column = cs.fixed_column(f"{name}.q_sort")

        # Every flagged a-value appears in S tagged TAG_A; every flagged
        # b-value tagged TAG_B.  Unflagged rows contribute (0, 0), which
        # padding rows of S provide.
        cs.add_lookup(
            f"{name}.a_in_s",
            [a_flag * a_value, a_flag * self.TAG_A],
            [self.s.cur(), self.tag.cur()],
        )
        cs.add_lookup(
            f"{name}.b_in_s",
            [b_flag * b_value, b_flag * self.TAG_B],
            [self.s.cur(), self.tag.cur()],
        )
        # S ascending; equal neighbours must share a tag, so a value can
        # never carry both tags.
        self._le = AssertLeChip(
            cs,
            f"{name}.sorted",
            self.q_sort.cur(),
            self.s.cur(),
            self.s.next(),
            table,
            n_limbs,
        )
        self._eq = IsZeroChip(
            cs, f"{name}.adj_eq", self.q_sort.cur(), self.s.next() - self.s.cur()
        )
        cs.create_gate(
            f"{name}.tag_block",
            [
                self.q_sort.cur()
                * self._eq.is_zero_expr
                * (self.tag.next() - self.tag.cur())
            ],
        )

    def assign(
        self,
        asg: Assignment,
        a_values: Sequence[int],
        b_values: Sequence[int],
    ) -> None:
        """Build the sorted tagged column from the flagged values."""
        entries = sorted(
            [(v, self.TAG_A) for v in sorted(set(a_values))]
            + [(v, self.TAG_B) for v in b_values]
        )
        usable = asg.usable_rows
        if len(entries) > usable - 1:
            raise ValueError(
                "disjointness column overflow: "
                f"{len(entries)} entries for {usable} usable rows"
            )
        # Padding zeros occupy the low rows (they sort first).
        offset = usable - len(entries)
        values = [0] * offset + [v for v, _ in entries]
        tags = [0] * offset + [t for _, t in entries]
        for i in range(usable):
            asg.assign(self.s, i, values[i])
            asg.assign(self.tag, i, tags[i])
        for i in range(usable - 1):
            asg.assign(self.q_sort, i, 1)
            self._le.assign_row(asg, i, values[i], values[i + 1])
            self._eq.assign_row(asg, i, values[i + 1] - values[i])


class PkFkJoinChip:
    """Inner join on ``T1.fk = T2.pk``.

    Inputs are expression views of the two relations:

    - ``fk`` / ``t1_valid``: the foreign key column and validity flag of
      T1 (per row),
    - ``t2_exprs``: the T2 columns to carry into the result, primary key
      first, each *already gated* so padding rows read 0,
    - ``t2_valid``: T2's validity flag.

    Output: ``match`` columns (row-aligned with T1) holding the partner
    T2 tuple on contributing rows, and :attr:`out_valid_expr` as the
    result validity flag.
    """

    def __init__(
        self,
        cs: ConstraintSystem,
        name: str,
        fk: Expression,
        t1_valid: Expression,
        t2_exprs: Sequence[Expression],
        t2_valid: Expression,
        table: RangeTable,
        n_limbs: int = 8,
    ):
        if not t2_exprs:
            raise ValueError("join needs at least the primary key column")
        self.name = name
        self.part: Column = cs.advice_column(f"{name}.part")
        self.match: list[Column] = [
            cs.advice_column(f"{name}.match{i}") for i in range(len(t2_exprs))
        ]
        part = self.part.cur()
        match_pk = self.match[0].cur()

        cs.create_gate(
            f"{name}.part_bool", [part * (Constant(1) - part)]
        )
        # Only valid T1 rows may contribute.
        cs.create_gate(f"{name}.part_valid", [part * (Constant(1) - t1_valid)])
        # Property 1: equality verification.
        cs.create_gate(f"{name}.eq", [part * (fk - match_pk)])
        # Property 2: source verification -- the matched tuple (plus its
        # validity) exists in T2.
        cs.add_lookup(
            f"{name}.match_src",
            [part * col.cur() for col in self.match] + [part],
            list(t2_exprs) + [t2_valid],
        )
        # Where part is 1 the matched tuple is one of T2's.
        cs.declare_bound(self.part, 1)
        for col, expr in zip(self.match, t2_exprs):
            cs.declare_bound(col, expr.upper_bound(cs.bounds))
        # Property 3: completeness -- non-contributing valid rows have a
        # foreign key disjoint from all primary keys.
        non_contributing = t1_valid * (Constant(1) - part)
        self._disjoint = DisjointChip(
            cs,
            f"{name}.disjoint",
            fk,
            non_contributing,
            t2_exprs[0],
            t2_valid,
            table,
            n_limbs,
        )

    @property
    def out_valid_expr(self) -> Expression:
        return self.part.cur()

    def assign(
        self,
        asg: Assignment,
        t1_keys: Sequence[tuple[int, int]],
        t2_rows: Sequence[Sequence[int]],
    ) -> list[int]:
        """Assign the join witness.

        ``t1_keys`` is the per-row (fk, valid) view of T1;
        ``t2_rows`` the valid T2 tuples (pk first) in row order.
        Returns the per-T1-row contribution flags.
        """
        pk_index: dict[int, Sequence[int]] = {}
        for row in t2_rows:
            pk_index.setdefault(row[0], row)

        flags: list[int] = []
        nonp_fks: list[int] = []
        for i, (fk, valid) in enumerate(t1_keys):
            partner = pk_index.get(fk) if valid else None
            flag = 1 if partner is not None else 0
            asg.assign(self.part, i, flag)
            if partner is not None:
                for col, value in zip(self.match, partner):
                    asg.assign(col, i, value)
            elif valid:
                nonp_fks.append(fk)
            flags.append(flag)
        self._disjoint.assign(
            asg, nonp_fks, [row[0] for row in t2_rows]
        )
        return flags
